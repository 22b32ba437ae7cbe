// Modeled Linux driver + DMA accelerator front-end (paper §V, Fig. 5).
//
// Each wavelet line is one request to the PL engine: the driver copies the
// extended line into kernel memory, starts the engine, and either polls the
// status register or sleeps on the completion interrupt. Double buffering
// (Fig. 5) splits the kernel memory into two areas so the next line's input
// copy overlaps the engine's processing of the current line.
//
// Two accounting front-ends share one cost decomposition (LineCost):
//
//   WaveletAccelerator          the additive ledger path — one synchronous
//                               line request at a time, PS-visible time
//                               returned per call (the seed model; every
//                               Fig. 9/10 bench still runs through it).
//   PipelinedWaveletAccelerator the event-queue path — lines are batched
//                               into the 2048-word kernel buffers, one
//                               driver call per batch, and the two buffers
//                               ping-pong at transfer granularity: buffer A
//                               is processed by the engine while buffer B
//                               fills across *consecutive* lines (the real
//                               Fig. 5 schedule). Time is computed by a
//                               Timeline, not assumed additive.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/timeline.h"
#include "src/hw/axi.h"
#include "src/hw/clock.h"
#include "src/hw/cost_constants.h"
#include "src/hw/resources.h"

namespace vf::driver {

enum class TransferMode { kAcpDma, kGpPort };
enum class CompletionMode { kPolling, kInterrupt };

struct DriverCosts {
  TransferMode transfer = TransferMode::kAcpDma;
  CompletionMode completion = CompletionMode::kPolling;
  bool double_buffering = true;

  // Per-call user->kernel entry: ioctl + copy_from_user + engine kick.
  // Dominates for short lines; this is exactly why the paper's FPGA loses
  // below the 35x35..40x40 break point (value calibrated against Fig. 9).
  double call_overhead_ps_cycles = hw::cost::kDriverCallPsCycles;
  // One status-register read across the GP port.
  double poll_ps_cycles = hw::cost::kStatusPollPsCycles;
  double expected_polls = hw::cost::kExpectedPollsPerCall;
  // Sleep + IRQ + wake path when completion = kInterrupt.
  double irq_latency_ps_cycles = hw::cost::kIrqLatencyPsCycles;

  // Scatter-gather chain costs (ISSUE 9): a batch that continues an armed
  // descriptor chain pays a PS-side descriptor append instead of the full
  // driver entry, plus a DMA-side descriptor fetch before its input burst.
  // Only consulted when Batching::sg_chain_len > 1.
  double sg_desc_build_ps_cycles = hw::cost::kSgDescBuildPsCycles;
  double sg_desc_fetch_pl_cycles = hw::cost::kSgDescFetchPlCycles;
};

// The four cost components of servicing line requests, kept separate so the
// ledger path and the timeline path charge the same numbers to different
// schedules (additive vs event-queue).
struct LineCost {
  SimDuration driver;   // PS: ioctl + copy + completion (poll/irq)
  SimDuration input;    // input words over the configured transfer path
  SimDuration compute;  // PL engine busy time
  SimDuration output;   // result words back

  // PS-resident portion: the CPU executes the driver call, and with GP-port
  // transfers it also moves every word itself. Everything else (DMA bursts,
  // engine busy) lives on the PL side of the fence and can overlap PS work.
  SimDuration ps_part(const DriverCosts& costs, bool dma_enabled) const {
    if (costs.transfer == TransferMode::kGpPort || !dma_enabled) {
      return driver + input + output;
    }
    return driver;
  }
};

// PS time of one user->kernel driver entry including completion.
inline SimDuration driver_call_time(const DriverCosts& costs) {
  SimDuration t = hw::ps_clock().cycles(costs.call_overhead_ps_cycles);
  if (costs.completion == CompletionMode::kPolling) {
    t += hw::ps_clock().cycles(costs.poll_ps_cycles * costs.expected_polls);
  } else {
    t += hw::ps_clock().cycles(costs.irq_latency_ps_cycles);
  }
  return t;
}

// PS time to append one descriptor to an already-armed scatter-gather ring
// (user-space bd fill + tail-pointer bump — no kernel entry).
inline SimDuration sg_desc_build_time(const DriverCosts& costs) {
  return hw::ps_clock().cycles(costs.sg_desc_build_ps_cycles);
}

// DMA-side time to fetch the next chained descriptor before its burst.
inline SimDuration sg_desc_fetch_time(const DriverCosts& costs) {
  return hw::pl_clock().cycles(costs.sg_desc_fetch_pl_cycles);
}

// Time to move `words` over the configured PS<->PL path: ACP DMA bursts at
// the PL clock, or CPU-issued GP-port beats at the PS clock.
inline SimDuration transfer_time(const hw::WaveletEngineConfig& engine,
                                 const DriverCosts& costs, int words) {
  if (costs.transfer == TransferMode::kGpPort || !engine.dma_enabled) {
    return hw::ps_clock().cycles(hw::GpPortModel{}.cycles_for_words(words));
  }
  return hw::pl_clock().cycles(hw::AcpDmaModel{}.cycles_for_words(words));
}

inline LineCost line_cost(const hw::WaveletEngineConfig& engine,
                          const DriverCosts& costs, int words_in, int words_out,
                          double compute_cycles) {
  LineCost c;
  c.driver = driver_call_time(costs);
  c.input = transfer_time(engine, costs, words_in);
  c.output = transfer_time(engine, costs, words_out);
  c.compute = hw::pl_clock().cycles(compute_cycles);
  return c;
}

// Accounts modeled time for line requests against one engine configuration.
class WaveletAccelerator {
 public:
  WaveletAccelerator(const hw::WaveletEngineConfig& engine, const DriverCosts& costs)
      : engine_(engine), costs_(costs) {}

  const hw::WaveletEngineConfig& engine() const { return engine_; }
  const DriverCosts& costs() const { return costs_; }

  // PS-visible time to process one line: `words_in` extended input words,
  // `words_out` result words, `compute_cycles` PL cycles of engine busy time.
  SimDuration line_time(int words_in, int words_out, double compute_cycles) {
    const LineCost cost = line_cost(engine_, costs_, words_in, words_out,
                                    compute_cycles);

    // Double buffering hides engine busy time behind the next line's input
    // copy; without it the PS waits out the full compute phase.
    SimDuration stall;
    if (costs_.double_buffering) {
      stall = cost.compute > cost.input ? cost.compute - cost.input
                                        : SimDuration::zero();
    } else {
      stall = cost.compute;
    }
    stall_time_ += stall;

    const SimDuration total = cost.driver + cost.input + stall + cost.output;
    busy_time_ += total;
    ++lines_;
    last_ps_time_ = cost.ps_part(costs_, engine_.dma_enabled);
    last_pl_time_ = total - last_ps_time_;
    return total;
  }

  // Accumulated PS wait-for-PL time (what double buffering removes).
  SimDuration stall_time() const { return stall_time_; }
  SimDuration busy_time() const { return busy_time_; }
  long long lines() const { return lines_; }

  // Split of the most recent line_time() between PS-resident work (driver
  // entry, GP-port word moves) and the PL-side remainder (DMA, engine,
  // stall) — what a frame-level pipeline may overlap with other PS work.
  SimDuration last_line_ps_time() const { return last_ps_time_; }
  SimDuration last_line_pl_time() const { return last_pl_time_; }

  void reset() {
    stall_time_ = SimDuration::zero();
    busy_time_ = SimDuration::zero();
    lines_ = 0;
    last_ps_time_ = SimDuration::zero();
    last_pl_time_ = SimDuration::zero();
  }

 private:
  hw::WaveletEngineConfig engine_;
  DriverCosts costs_;
  SimDuration stall_time_;
  SimDuration busy_time_;
  long long lines_ = 0;
  SimDuration last_ps_time_;
  SimDuration last_pl_time_;
};

// Transfer-granularity double buffering with batched submission.
//
// Consecutive line requests are packed into one kernel buffer (up to
// `engine.buffer_words` words and `max_lines_per_call` lines) and shipped
// with a single driver call, amortizing the ~12k-cycle user->kernel entry —
// the cost that puts the serial FPGA behind NEON below 40x40. The two
// kernel buffers ping-pong: batch i's input copy may start as soon as the
// engine has finished reading batch i-2's buffer, so the DMA fills buffer B
// while the engine processes buffer A (Fig. 5 across consecutive lines).
//
// All time lands on a caller-owned Timeline across three resources (PS
// core, DMA channel, PL engine); PS-visible completion is the last output
// transfer's end, i.e. the timeline makespan, not a sum.
class PipelinedWaveletAccelerator {
 public:
  struct Batching {
    // Cap on lines per driver call; the 2048-word buffer capacity caps the
    // batch too, whichever bites first.
    int max_lines_per_call = 16;
    // Scatter-gather descriptor chain length: one driver entry (ioctl) arms
    // up to this many batches; the rest of the chain pays only the
    // descriptor build/fetch charges (DriverCosts::sg_*). 1 = every batch
    // is a chain head, i.e. the flat per-batch driver entry — bit-identical
    // to the pre-SG schedule. Must be >= 1: the constructor aborts otherwise.
    int sg_chain_len = 1;
  };

  // One closed batch, recorded when tracing is enabled (set_trace): the
  // streaming replay (src/sched/streaming.h) re-schedules exactly these
  // requests across frame boundaries.
  struct BatchTrace {
    int lines = 0;
    int words_in = 0;
    int words_out = 0;
    double compute_cycles = 0.0;
    // True when a barrier() separates this batch from the previous one: its
    // input depends on outputs of earlier batches (row -> column pass).
    bool after_barrier = false;
  };

  PipelinedWaveletAccelerator(const hw::WaveletEngineConfig& engine,
                              const DriverCosts& costs, const Batching& batching,
                              Timeline* timeline, ResourceId ps, ResourceId dma,
                              ResourceId pl)
      : engine_(engine), costs_(costs), batching_(batching), timeline_(timeline),
        ps_(ps), dma_(dma), pl_(pl) {
    // Always-on: a chain of no batches has no meaning, and silently treating
    // it as 1 would misreport the schedule the caller asked for.
    if (batching.sg_chain_len < 1) {
      std::fprintf(stderr,
                   "fatal: PipelinedWaveletAccelerator: sg_chain_len %d "
                   "(must be >= 1)\n",
                   batching.sg_chain_len);
      std::abort();
    }
  }

  const hw::WaveletEngineConfig& engine() const { return engine_; }
  const DriverCosts& costs() const { return costs_; }
  const Batching& batching() const { return batching_; }

  // Record every closed batch into `trace` (nullptr disables). Recording is
  // pure observation: the event schedule is unchanged.
  void set_trace(std::vector<BatchTrace>* trace) { trace_ = trace; }

  // Queues one line into the current batch, closing the batch first if the
  // line would overflow the kernel buffer or the per-call line cap.
  void submit_line(int words_in, int words_out, double compute_cycles) {
    if (words_in > engine_.buffer_words) {
      // Same policy as check_engine_fit: modeling a request the hardware
      // cannot hold would produce plausible-looking nonsense.
      std::fprintf(stderr,
                   "fatal: %d-word line request does not fit the modeled "
                   "kernel buffer (%d words)\n",
                   words_in, engine_.buffer_words);
      std::abort();
    }
    if (pending_.lines > 0 &&
        (pending_.lines >= batching_.max_lines_per_call ||
         pending_.words_in + words_in > engine_.buffer_words)) {
      close_batch();
    }
    pending_.lines += 1;
    pending_.words_in += words_in;
    pending_.words_out += words_out;
    pending_.compute_cycles += compute_cycles;
    ++lines_;
  }

  // Data-dependency fence: lines submitted after the barrier consume outputs
  // of lines before it (e.g. the column pass reads the row pass's results),
  // so their input copies may not start until those outputs have landed.
  void barrier() {
    close_batch();
    dep_ready_ = last_output_end_;
    barrier_pending_ = true;
  }

  // Closes any pending batch and returns the completion time of the last
  // output transfer (PS-visible drain point). A drain closes the armed
  // descriptor chain too: the ioctl context ends with the synchronous wait,
  // so the next batch re-enters the driver (chain head).
  SimDuration flush() {
    close_batch();
    chain_pos_ = 0;
    return last_output_end_;
  }

  long long lines() const { return lines_; }
  long long driver_calls() const { return driver_calls_; }
  // Batches that paid the full driver entry (chain heads). With
  // sg_chain_len = 1 this equals driver_calls().
  long long chain_heads() const { return chain_heads_; }
  SimDuration last_completion() const { return last_output_end_; }

 private:
  struct Pending {
    int lines = 0;
    int words_in = 0;
    int words_out = 0;
    double compute_cycles = 0.0;
  };

  void close_batch() {
    if (pending_.lines == 0) return;
    // CPU-driven GP-port transfers occupy the PS core; ACP bursts ride the
    // DMA channel and leave the PS free after the driver call.
    const bool dma_path =
        costs_.transfer == TransferMode::kAcpDma && engine_.dma_enabled;
    const ResourceId xfer = dma_path ? dma_ : ps_;

    // The driver call's copy_from_user writes this batch's kernel buffer, so
    // it must wait until the engine has drained the batch that last used it —
    // with one buffer that serializes the ~12k-cycle PS entry with the
    // engine; with two, the call overlaps the other buffer's processing
    // (Fig. 5). It also may not run before the outputs this batch's lines
    // depend on have landed (dep_ready_, see barrier()).
    //
    // Scatter-gather chaining (sg_chain_len > 1): only the chain head pays
    // the full driver entry; continuation batches append a descriptor to
    // the armed ring (small PS charge) and the DMA fetches it before the
    // input burst. Chains persist across barriers (descriptors are armed
    // ahead of the data dependency) and close at flush().
    const int chain_len = batching_.sg_chain_len;
    const bool chain_head = chain_pos_ == 0;
    const int buf = costs_.double_buffering ? (driver_calls_ & 1) : 0;
    const SimDuration drv_ready = std::max(dep_ready_, buffer_free_[buf]);
    const Timeline::Event drv = timeline_->schedule(
        ps_, chain_head ? "drv" : "desc", drv_ready,
        chain_head ? driver_call_time(costs_) : sg_desc_build_time(costs_));
    SimDuration in_time = transfer_time(engine_, costs_, pending_.words_in);
    if (!chain_head) in_time += sg_desc_fetch_time(costs_);
    const Timeline::Event in = timeline_->schedule(xfer, "in", drv.end, in_time);
    const Timeline::Event comp = timeline_->schedule(
        pl_, "comp", in.end, hw::pl_clock().cycles(pending_.compute_cycles));
    const Timeline::Event out = timeline_->schedule(
        xfer, "out", comp.end, transfer_time(engine_, costs_, pending_.words_out));

    // The engine has consumed the input buffer once compute ends; the next
    // batch using this buffer may start filling then.
    buffer_free_[buf] = comp.end;
    last_output_end_ = out.end;
    ++driver_calls_;
    if (chain_head) ++chain_heads_;
    chain_pos_ = (chain_pos_ + 1) % chain_len;
    if (trace_) {
      trace_->push_back({pending_.lines, pending_.words_in, pending_.words_out,
                         pending_.compute_cycles, barrier_pending_});
    }
    barrier_pending_ = false;
    pending_ = Pending{};
  }

  hw::WaveletEngineConfig engine_;
  DriverCosts costs_;
  Batching batching_;
  Timeline* timeline_;
  ResourceId ps_, dma_, pl_;
  Pending pending_;
  SimDuration buffer_free_[2];
  SimDuration dep_ready_;
  SimDuration last_output_end_;
  long long lines_ = 0;
  long long driver_calls_ = 0;
  long long chain_heads_ = 0;
  int chain_pos_ = 0;
  bool barrier_pending_ = false;
  std::vector<BatchTrace>* trace_ = nullptr;
};

}  // namespace vf::driver
