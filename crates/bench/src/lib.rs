//! The workspace's kernel benchmark lives under `benches/`: a hand-rolled
//! wall-clock loop over the score kernels and the oracle scans
//! (`bench_kernels`), which writes the committed `BENCH_kernels.json` at the
//! workspace root. The serving engine, the wire protocol and the durable
//! store are measured by the benchmark package under `netbench/`. This
//! library target is empty; it exists because a package needs one.
