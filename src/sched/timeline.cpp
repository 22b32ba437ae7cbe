#include "src/common/timeline.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace vf {

ResourceId Timeline::add_resource(std::string name) {
  resources_.push_back(Resource{std::move(name), SimDuration::zero(),
                                SimDuration::zero()});
  return static_cast<ResourceId>(resources_.size()) - 1;
}

Timeline::Event Timeline::schedule(ResourceId r, const char* label,
                                   SimDuration ready, SimDuration duration) {
  // Always-on: the CMake default is Release, where an assert would let a bad
  // id write out of bounds and a negative duration break the per-resource
  // ordering busy_intervals() relies on.
  if (r < 0 || r >= resource_count() || !(duration >= SimDuration::zero())) {
    std::fprintf(stderr,
                 "fatal: Timeline::schedule(%s) on resource %d of %d with "
                 "duration %g s\n",
                 label, r, resource_count(), duration.sec());
    std::abort();
  }
  Resource& res = resources_[r];
  Event ev;
  ev.resource = r;
  ev.label = label;
  ev.start = std::max(ready, res.free_at);
  ev.end = ev.start + duration;
  res.free_at = ev.end;
  res.busy += duration;
  if (ev.end > makespan_) makespan_ = ev.end;
  events_.push_back(ev);
  return ev;
}

std::vector<std::pair<SimDuration, SimDuration>> Timeline::busy_intervals(
    const std::vector<ResourceId>& resources) const {
  using Span = std::pair<SimDuration, SimDuration>;
  // Split the requested resources' non-empty events into one list per
  // resource. schedule() places every event at or after its resource's
  // previous end, so each list is already start-ordered and disjoint.
  std::vector<int> slot(resources_.size(), -1);
  int lists = 0;
  for (ResourceId r : resources) {
    if (r >= 0 && r < resource_count() && slot[static_cast<std::size_t>(r)] < 0) {
      slot[static_cast<std::size_t>(r)] = lists++;
    }
  }
  std::vector<std::vector<Span>> spans(static_cast<std::size_t>(lists));
  for (const Event& ev : events_) {
    const int l = slot[static_cast<std::size_t>(ev.resource)];
    if (l < 0 || ev.end == ev.start) continue;  // zero-length: no time
    spans[static_cast<std::size_t>(l)].emplace_back(ev.start, ev.end);
  }

  // k-way merge by start, coalescing overlapping and touching spans. The
  // union is canonical, so the order among equal starts does not matter.
  std::vector<std::size_t> head(spans.size(), 0);
  std::vector<Span> merged;
  for (;;) {
    std::size_t best = spans.size();
    for (std::size_t l = 0; l < spans.size(); ++l) {
      if (head[l] == spans[l].size()) continue;
      if (best == spans.size() ||
          spans[l][head[l]].first < spans[best][head[best]].first) {
        best = l;
      }
    }
    if (best == spans.size()) break;
    const Span& span = spans[best][head[best]++];
    if (!merged.empty() && span.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, span.second);
    } else {
      merged.push_back(span);
    }
  }
  return merged;
}

void Timeline::clear() {
  for (Resource& res : resources_) {
    res.free_at = SimDuration::zero();
    res.busy = SimDuration::zero();
  }
  events_.clear();
  makespan_ = SimDuration::zero();
}

}  // namespace vf
