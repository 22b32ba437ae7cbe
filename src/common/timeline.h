// Discrete-event timeline for the modeled ZC702.
//
// The additive SimDuration ledger (src/common/sim_time.h) charges every cost
// sequentially, so concurrency between the PS, the PL engine, and the DMA
// channel can never be expressed — exactly the limitation that hid the
// paper's Fig. 5 schedule (buffer A processes while buffer B fills) and any
// frame-level PS/PL overlap. The Timeline replaces assumption with
// computation: named resources, events with absolute start/end timestamps,
// and greedy earliest-start scheduling (an event starts at
// max(ready, resource-free)), so overlap falls out of the event graph.
//
// Timestamps are SimDurations measured from the timeline's t=0; everything
// is deterministic — same schedule calls, same events, on any host
// (tests/test_timeline.cpp locks this across runs).
//
// The timeline keeps only what its readers use: per resource the free time,
// the busy total and a list of coalesced busy spans (what the energy
// integral reads). Full events go only to an optional caller-owned log
// (set_event_log); without one the timeline stores no per-event record.
// Events are flat and trivially copyable: a label is a `const char*` that
// must outlive the timeline and its log (string literals at every call
// site), so logging builds no string either.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"

namespace vf {

using ResourceId = int;

class Timeline {
 public:
  struct Event {
    ResourceId resource = 0;
    const char* label = "";  // static lifetime (see above)
    SimDuration start, end;
    SimDuration duration() const { return end - start; }
  };

  // Registers a schedulable resource (e.g. "PS core", "PL engine",
  // "ACP DMA"). Ids are dense and assigned in call order.
  ResourceId add_resource(std::string name);

  int resource_count() const { return static_cast<int>(resources_.size()); }
  const std::string& resource_name(ResourceId r) const { return resources_[r].name; }

  // Schedules a task on `r` that may not start before `ready`; it starts at
  // max(ready, the resource's free time) and occupies the resource for
  // `duration`. Returns the placed event (with resolved start/end). An
  // unknown resource, a non-finite `ready`, or a negative or non-finite
  // duration aborts, in every build type, so each resource's events stay
  // start-ordered and disjoint. A non-empty event that starts where the
  // resource's last busy span ends extends that span; any other non-empty
  // event opens a new one. Zero-length events occupy no time.
  Event schedule(ResourceId r, const char* label, SimDuration ready,
                 SimDuration duration);

  // Clears every event: free times, busy totals, spans and the makespan go
  // back to zero. The resources and the span lists' capacity are kept, so a
  // timeline reused per frame allocates nothing after the first.
  void reset();

  // Appends every event scheduled from now on to `*log` (caller-owned; the
  // timeline never clears it). nullptr, the default, stops logging. For
  // tests and trace export; no result of the timeline reads the log.
  void set_event_log(std::vector<Event>* log) { log_ = log; }

  // Earliest time a new event could start on `r` (ignoring ready deps).
  SimDuration free_at(ResourceId r) const { return resources_[r].free_at; }

  // Sum of event durations on `r` (idle gaps excluded).
  SimDuration busy_time(ResourceId r) const { return resources_[r].busy; }

  // End of the latest event across all resources (0 when empty).
  SimDuration makespan() const { return makespan_; }

  // Merged busy intervals of the given resources, sorted by start time, with
  // overlapping/adjacent intervals coalesced. This is the power-integration
  // view: during any merged interval at least one of the resources is
  // active, so a per-interval draw is charged once, not once per resource.
  // Zero-length events occupy no time. One linear k-way merge of the
  // per-resource span lists, which schedule() keeps start-ordered. The
  // union is canonical, so it is the same as merging every event's span.
  std::vector<std::pair<SimDuration, SimDuration>> busy_intervals(
      const std::vector<ResourceId>& resources) const;

 private:
  using Span = std::pair<SimDuration, SimDuration>;
  struct Resource {
    std::string name;
    SimDuration free_at;
    SimDuration busy;
    std::vector<Span> spans;  // coalesced, start-ordered, disjoint
  };
  std::vector<Resource> resources_;
  std::vector<Event>* log_ = nullptr;
  SimDuration makespan_;
};

}  // namespace vf
