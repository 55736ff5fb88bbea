// expect: unset-option
// Nothing writes tuned_only_in_tests (a comparison is not a write), and the
// allow mark on bare_mark gives no reason: both fire.
#pragma once

struct WidgetOptions {
  int used = 1;
  double tuned_only_in_tests = 0.5;
  // dbs-lint: allow(unset-option)
  int bare_mark = 2;
};

inline bool widget_defaults_hold() {
  WidgetOptions options;
  options.used = 3;
  return options.tuned_only_in_tests == 0.5;
}
