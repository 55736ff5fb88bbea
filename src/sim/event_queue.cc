#include "sim/event_queue.h"

#include <utility>

#include "common/check.h"

namespace dbs {

void EventQueue::schedule(double when, Handler handler) {
  DBS_CHECK_MSG(when >= now_, "cannot schedule into the past: " << when << " < " << now_);
  heap_.push(Entry{when, next_seq_++, std::move(handler)});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // std::priority_queue::top() is const; move out via const_cast is UB-free
  // here because we pop immediately and never observe the moved-from state.
  Entry entry = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  now_ = entry.when;
  entry.handler();
  return true;
}

std::size_t EventQueue::run_all() {
  std::size_t fired = 0;
  while (step()) ++fired;
  return fired;
}

}  // namespace dbs
