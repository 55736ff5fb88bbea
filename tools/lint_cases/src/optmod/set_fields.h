// expect: clean
// Every field of an options struct has a writer here, through an
// assignment, a nested assignment or a designated initializer, or an allow
// mark with a reason. Static constants, member functions and the fields of
// a nested type that is not an options struct are not checked.
#pragma once

struct GadgetConfig {
  static constexpr int kFixed = 4;
  struct Limits {
    int low = 0;
  };
  int count = 1;
  Limits limits;
  double rate = 0.5;  // dbs-lint: allow(unset-option) — read from the site file
  int doubled() const { return count * 2; }
};

struct RenderRequest {
  int width = 0;
  int height = 0;
};

inline int configure() {
  GadgetConfig config;
  config.count = 2;
  config.limits.low = 1;
  const RenderRequest request{.width = 3, .height = 4};
  return config.doubled() + request.width + GadgetConfig::kFixed;
}
