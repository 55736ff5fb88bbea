// expect: determinism
// A library knob read from the environment: a seeded result would then
// depend on whatever the caller's shell exports. Both spellings fire.
#include "badmod.h"

#include <cstdlib>

namespace dbs {

bool engine_from_env() {
  const char* a = std::getenv("DBS_ENGINE");
  const char* b = getenv("DBS_ENGINE");
  return a != nullptr && b != nullptr;
}

}  // namespace dbs
