//! The workspace's benchmark harnesses live under `benches/`: hand-rolled
//! wall-clock loops over the score kernels (`bench_kernels`), the serving
//! engine (`bench_serve`) and the durable store (`bench_store`), each of
//! which writes its committed `BENCH_*.json` at the workspace root. This
//! library target is empty; it exists because a package needs one.
