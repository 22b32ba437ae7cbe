// Qm.n fixed-point quantization and the fixed-point engine datapath used by
// ablation A7 (float32 vs fixed-point trade-off of the paper's HLS engine).
#pragma once

#include <string>

#include "src/simd/dispatch.h"

namespace vf::hw {

struct FixedPointFormat {
  int total_bits = 18;  // word width including sign
  int frac_bits = 15;   // fractional bits (n of Qm.n)

  int integer_bits() const { return total_bits - frac_bits; }
  std::string name() const;  // e.g. "Q3.15"

  // Round-to-nearest at 2^-frac_bits, saturating to the representable range.
  double quantize(double v) const;
  double max_value() const;
  double min_value() const;
  double step() const;
};

// The fixed-point engine datapath as a simd::KernelSet flavour, so it runs
// through every host path (the fused plan, the tiled transforms, the pool)
// like the float flavours: per line, the input samples and the coefficients
// are quantized to the format, products accumulate exactly in double (a
// wide DSP48-style accumulator), and each output is quantized on its way
// back to memory. The lane-interleaved analyze_mag_ml takes its magnitudes
// from the stored, quantized outputs. magnitude, select and average (and
// their multi-line forms) are the scalar float kernels: the fusion rule runs
// on the PS, not in the engine.
//
// One set exists per format the benches and tests use: Q8.24 {32,24}, Q6.18
// {24,18}, Q3.15 {18,15}, Q2.14 {16,14}, Q4.12 {16,12} and Q2.10 {12,10}.
// Any other format aborts with a message.
const simd::KernelSet& fixed_point_kernels(const FixedPointFormat& fmt);

}  // namespace vf::hw
