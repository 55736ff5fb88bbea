// expect: clean
// Identifiers that merely *contain* the forbidden tokens must not fire:
// waiting_time(), item_waiting_time(), uptime(), a local named grand(),
// options_getenv(), and "rand(" / "time(" / "getenv(" inside strings or
// comments.
#include "badmod.h"

namespace dbs {

double waiting_time(double z) { return z; }
double item_waiting_time(double z) { return waiting_time(z); }
double uptime(double z) { return z; }

double grand(double x) { return x; }
double options_getenv(double x) { return x; }

double lookalikes() {
  const char* note = "calls rand(, time( and getenv( in a string";  // comment: getenv(
  (void)note;
  return grand(1.0) + item_waiting_time(2.0) + uptime(3.0) + options_getenv(4.0);
}

}  // namespace dbs
