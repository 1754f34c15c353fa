// Host-speed reference for the end-to-end timings.
//
// The benchmark shares its host with other work, and that work slows the
// event loop by up to 2x for seconds to minutes at a time. Each untraced
// pass is therefore bracketed by a fixed reference kernel, and its timings
// are reported as seconds on a host where that kernel takes
// kReferenceSeconds. The kernel is the benchmark's own code, never the
// program's, so a change to the program cannot move it.
#pragma once

namespace tnbench {

/// Per-thread time of the reference kernel on an unloaded host.
inline constexpr double kReferenceSeconds = 0.01;

/// Runs the reference kernel on `threads` threads at once and returns the
/// mean of their wall times. The kernel is a small discrete-event loop — a
/// binary heap of std::function events, a hash lookup and a node update
/// per event — so it feels host contention the way the simulator does.
double reference_seconds(int threads);

}  // namespace tnbench
