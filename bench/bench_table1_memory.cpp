// Table 1: back-of-envelope memory for the traditional FFT (full N³
// result) vs the domain-local FFT (N×N×k slab), at the paper's exact
// (N, k) rows. Values should match the paper bit-for-bit — they are the
// paper's own formulas (8 N³ and 8 N² k bytes, printed in GB).
#include <cstdio>

#include "common/table.hpp"
#include "device/memory_model.hpp"
#include "bench_json.hpp"

int main() {
  using namespace lc;

  bench::JsonTable table("table1_memory",
      "Table 1 — memory for traditional FFT vs domain-local FFT (GB)");
  table.header({"Problem size", "Domain size", "Traditional FFT [GB]",
                "Local FFT (ours) [GB]", "Spectrum c2c [GB]",
                "Spectrum r2c [GB]"});

  struct Row {
    i64 n;
    i64 k;
  };
  // The paper's exact rows.
  const Row rows[] = {{1024, 128}, {1024, 512}, {2048, 128}, {2048, 512},
                      {4096, 128}, {4096, 512}, {8192, 64},  {8192, 128}};
  for (const auto& r : rows) {
    table.row({std::to_string(r.n) + "^3", std::to_string(r.k) + "^3",
               format_bytes_gb(
                   static_cast<double>(device::traditional_fft_bytes(r.n)), 0),
               format_bytes_gb(static_cast<double>(
                                   device::local_fft_slab_bytes(r.n, r.k)),
                               0),
               format_bytes_gb(
                   static_cast<double>(device::local_fft_spectrum_bytes(
                       r.n, r.k, /*real_path=*/false)),
                   0),
               format_bytes_gb(
                   static_cast<double>(device::local_fft_spectrum_bytes(
                       r.n, r.k, /*real_path=*/true)),
                   1)});
  }
  table.print();
  std::puts(
      "\nPaper values (GB): traditional {8, 8, 64, 64, 512, 512, 4096, 4096};"
      "\n                   ours        {1, 4, 4, 16, 16, 64, 32, 64}."
      "\nSpectrum columns: the slab as stored in spectral space — full"
      "\ncomplex (2x the paper's real-slab figure) vs the Hermitian"
      "\nhalf-spectrum, which lands back at the paper's footprint (+ one"
      "\nNyquist column).");
  return 0;
}
