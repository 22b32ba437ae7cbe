#include "src/common/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vf {

ResourceId Timeline::add_resource(std::string name) {
  resources_.push_back(Resource{std::move(name), SimDuration::zero(),
                                SimDuration::zero(), {}});
  return static_cast<ResourceId>(resources_.size()) - 1;
}

void Timeline::reset() {
  for (Resource& res : resources_) {
    res.free_at = SimDuration::zero();
    res.busy = SimDuration::zero();
    res.spans.clear();
  }
  makespan_ = SimDuration::zero();
}

Timeline::Event Timeline::schedule(ResourceId r, const char* label,
                                   SimDuration ready, SimDuration duration) {
  // Always-on: the CMake default is Release, where an assert would let a bad
  // id write out of bounds, and a negative or non-finite time would break
  // span coalescing and the per-resource ordering busy_intervals() relies on.
  if (r < 0 || r >= resource_count() || !std::isfinite(ready.sec()) ||
      !std::isfinite(duration.sec()) || duration < SimDuration::zero()) {
    std::fprintf(stderr,
                 "fatal: Timeline::schedule(%s) on resource %d of %d with "
                 "ready %g s, duration %g s\n",
                 label, r, resource_count(), ready.sec(), duration.sec());
    std::abort();
  }
  Resource& res = resources_[static_cast<std::size_t>(r)];
  Event ev;
  ev.resource = r;
  ev.label = label;
  ev.start = std::max(ready, res.free_at);
  ev.end = ev.start + duration;
  res.free_at = ev.end;
  res.busy += duration;
  if (ev.end > makespan_) makespan_ = ev.end;
  if (ev.end > ev.start) {
    if (!res.spans.empty() && res.spans.back().second == ev.start) {
      res.spans.back().second = ev.end;
    } else {
      res.spans.emplace_back(ev.start, ev.end);
    }
  }
  if (log_) log_->push_back(ev);
  return ev;
}

std::vector<std::pair<SimDuration, SimDuration>> Timeline::busy_intervals(
    const std::vector<ResourceId>& resources) const {
  // The requested resources' span lists, each once. schedule() keeps every
  // list start-ordered and disjoint, so no list needs sorting.
  std::vector<const std::vector<Span>*> lists;
  std::vector<char> taken(resources_.size(), 0);
  for (ResourceId r : resources) {
    if (r >= 0 && r < resource_count() && !taken[static_cast<std::size_t>(r)]) {
      taken[static_cast<std::size_t>(r)] = 1;
      lists.push_back(&resources_[static_cast<std::size_t>(r)].spans);
    }
  }

  // k-way merge by start, coalescing overlapping and touching spans. The
  // union is canonical, so the order among equal starts does not matter.
  std::vector<std::size_t> head(lists.size(), 0);
  std::vector<Span> merged;
  for (;;) {
    std::size_t best = lists.size();
    for (std::size_t l = 0; l < lists.size(); ++l) {
      if (head[l] == lists[l]->size()) continue;
      if (best == lists.size() ||
          (*lists[l])[head[l]].first < (*lists[best])[head[best]].first) {
        best = l;
      }
    }
    if (best == lists.size()) break;
    const Span& span = (*lists[best])[head[best]++];
    if (!merged.empty() && span.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, span.second);
    } else {
      merged.push_back(span);
    }
  }
  return merged;
}

}  // namespace vf
