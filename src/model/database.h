// The broadcast database D: the full catalogue of items to disseminate.
//
// The catalogue is stored as structure-of-arrays — contiguous `f` and `z`
// columns — so the schedulers' inner loops stream over cache-line-dense
// memory instead of gathering fields out of an array of structs. The same
// two columns are also read in benefit order, the order DRP, CDS and the
// multilevel coarsening walk: a catalogue whose ratios arrive out of order
// keeps a second, rank-major copy of them; one that arrives in order (every
// multilevel coarse level does) is its own rank-major copy. The row view
// (`Item`) is materialized on demand for IO and tests; see
// docs/ARCHITECTURE.md §3 for the layout contract.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/item.h"

namespace dbs {

/// Immutable-after-construction catalogue of broadcast items.
///
/// Invariants (checked on construction):
///  * at least one item;
///  * every size is strictly positive and finite, with finite total;
///  * every frequency is non-negative and finite, with positive, finite
///    total.
///
/// Frequencies are normalized so that Σ f_j = 1, matching the paper's model.
/// Item ids are the positions in the original input order, so an Allocation's
/// assignment vector can be indexed by ItemId.
///
/// Storage is columnar: freqs() and sizes() expose the two item columns as
/// contiguous spans indexed by ItemId. The benefit-ratio descending order
/// (DRP's input order) is computed once at construction, and
/// benefit_freqs() and benefit_sizes() hold the same two columns by rank,
/// an item's position in that order — every scheduler run streams those
/// instead of re-sorting or gathering by id. When the ratios arrive in
/// order, rank equals id and those are the id columns themselves.
class Database {
 public:
  /// \brief Builds a database from the parallel columns z and f, taking
  /// ownership of both: ids are assigned 0..N-1 in input order and the
  /// frequencies are normalized in place. Callers that are done with their
  /// vectors move them in; an lvalue argument is copied once.
  Database(std::vector<double> sizes, std::vector<double> freqs);

  /// \brief Number of items N.
  std::size_t size() const { return freq_.size(); }

  /// \brief Materializes the row view of item `id` (bounds-checked).
  Item item(ItemId id) const;

  /// \brief Materializes the full row view, in id order. Intended for IO
  /// and tests; hot paths should stream the columns instead.
  std::vector<Item> items() const;

  /// \brief The access-frequency column f, indexed by ItemId (normalized).
  std::span<const double> freqs() const { return freq_; }

  /// \brief The item-size column z, indexed by ItemId.
  std::span<const double> sizes() const { return size_; }

  /// \brief Σ z_j over the whole database.
  double total_size() const { return total_size_; }

  /// \brief Σ f_j · z_j — the schedule-independent download term of Eq. (2).
  double weighted_size() const { return weighted_size_; }

  /// \brief Item ids sorted by benefit ratio f/z descending, ties broken by
  /// id — DRP's input order. Computed once at construction; every call
  /// returns the same cached vector.
  const std::vector<ItemId>& benefit_order() const { return benefit_order_; }

  /// \brief The frequency column by rank: benefit_freqs()[i] is
  /// freqs()[benefit_order()[i]], bit for bit. Input whose ratios arrive
  /// in order keeps no copy: this is then freqs() itself.
  std::span<const double> benefit_freqs() const {
    return benefit_freq_.empty() ? freq_ : benefit_freq_;
  }

  /// \brief The size column by rank: benefit_sizes()[i] is
  /// sizes()[benefit_order()[i]], bit for bit. Input whose ratios arrive
  /// in order keeps no copy: this is then sizes() itself.
  std::span<const double> benefit_sizes() const {
    return benefit_size_.empty() ? size_ : benefit_size_;
  }

  /// \brief Item ids sorted by access frequency, descending (the
  /// conventional environment's order, used by VF^K). Deterministic
  /// tie-break by id.
  std::vector<ItemId> ids_by_freq_desc() const;

 private:
  std::vector<double> freq_;  // f_j, normalized to Σ f = 1
  std::vector<double> size_;  // z_j
  double total_size_ = 0.0;
  double weighted_size_ = 0.0;
  std::vector<ItemId> benefit_order_;
  std::vector<double> benefit_freq_;  // f by rank; empty when rank == id
  std::vector<double> benefit_size_;  // z by rank; empty when rank == id
};

}  // namespace dbs
