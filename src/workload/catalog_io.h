// Catalogue file I/O: load and store broadcast databases as CSV so the CLI
// (and downstream users) can schedule real catalogues.
//
// Format: one item per line, `size,freq[,name]`. Blank lines and lines
// starting with `#` are ignored; an optional header line `size,freq[,name]`
// is skipped. Frequencies need not be normalized (Database normalizes).
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "model/database.h"

namespace dbs {

/// A catalogue: the database plus optional per-item display names
/// (names[id] is empty when the file had no name column).
struct Catalog {
  Database database;
  std::vector<std::string> names;

  /// Display name of an item: its file name when present, else "d<id+1>".
  std::string name_of(ItemId id) const;
};

/// Parses a catalogue from a stream. Throws std::runtime_error with the
/// offending line number on malformed input (bad field count, non-numeric,
/// non-finite or non-positive size, non-numeric, non-finite or negative
/// frequency, or a number that overflows or underflows to zero). Subnormal
/// values load as written.
Catalog load_catalog(std::istream& in);

/// Loads a catalogue from a file path. Throws std::runtime_error if the file
/// cannot be opened or parsed.
Catalog load_catalog_file(const std::string& path);

/// Writes a catalogue in the same format (with header), with enough digits
/// that sizes reload bit-identical. Throws std::invalid_argument naming the
/// item if a name contains ',', '\n' or '\r', which the loader would reject.
void store_catalog(std::ostream& out, const Catalog& catalog);

}  // namespace dbs
