#include "workload/catalog_io.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dbs {
namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, ',')) fields.push_back(trim(field));
  return fields;
}

[[noreturn]] void fail(std::size_t line_number, const std::string& why) {
  std::ostringstream os;
  os << "catalog line " << line_number << ": " << why;
  throw std::runtime_error(os.str());
}

double parse_number(const std::string& field, std::size_t line_number,
                    const char* what) {
  const char* begin = field.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end == begin) {
    fail(line_number, std::string("non-numeric ") + what + " '" + field + "'");
  }
  if (end != begin + field.size()) {
    fail(line_number, std::string("trailing junk in ") + what);
  }
  // strtod flags ERANGE on overflow and on any underflow. A subnormal result
  // is kept: it is exactly what store_catalog writes for a subnormal value.
  if (errno == ERANGE && (value == 0.0 || std::isinf(value))) {
    fail(line_number, std::string("out-of-range ") + what + " '" + field + "'");
  }
  if (!std::isfinite(value)) {
    fail(line_number, std::string("non-finite ") + what + " '" + field + "'");
  }
  return value;
}

}  // namespace

std::string Catalog::name_of(ItemId id) const {
  if (id < names.size() && !names[id].empty()) return names[id];
  // Appending, not "d" + ...: GCC 12's -O3 flags libstdc++'s operator+
  // (const char*, string&&) with a false -Wrestrict.
  std::string name = "d";
  name += std::to_string(id + 1);
  return name;
}

Catalog load_catalog(std::istream& in) {
  std::vector<double> sizes, freqs;
  std::vector<std::string> names;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const std::vector<std::string> fields = split_fields(stripped);
    if (fields.size() < 2 || fields.size() > 3) {
      fail(line_number, "expected 'size,freq[,name]'");
    }
    if (sizes.empty() && fields[0] == "size") continue;  // header
    const double size = parse_number(fields[0], line_number, "size");
    const double freq = parse_number(fields[1], line_number, "freq");
    if (size <= 0.0) fail(line_number, "size must be positive");
    if (freq < 0.0) fail(line_number, "freq must be non-negative");
    sizes.push_back(size);
    freqs.push_back(freq);
    names.push_back(fields.size() == 3 ? fields[2] : std::string());
  }
  if (sizes.empty()) throw std::runtime_error("catalog: no items found");
  return Catalog{Database(std::move(sizes), std::move(freqs)), std::move(names)};
}

Catalog load_catalog_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("catalog: cannot open " + path);
  return load_catalog(in);
}

void store_catalog(std::ostream& out, const Catalog& catalog) {
  // Refuse, before writing anything, a name the loader would split or cut.
  for (ItemId id = 0; id < catalog.database.size(); ++id) {
    if (catalog.name_of(id).find_first_of(",\n\r") != std::string::npos) {
      throw std::invalid_argument("catalog: item " + std::to_string(id) +
                                  " has a name containing ',', '\\n' or '\\r'");
    }
  }
  const std::streamsize saved_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "size,freq,name\n";
  for (const Item& it : catalog.database.items()) {
    out << it.size << ',' << it.freq << ',' << catalog.name_of(it.id) << '\n';
  }
  out.precision(saved_precision);
}

}  // namespace dbs
