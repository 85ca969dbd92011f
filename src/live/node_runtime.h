// The per-process detector daemon behind the mmrfd-node binary: one
// RealTimeDetector straight over UdpTransport (optionally through
// FaultyTransport), paced by wall clock, periodically snapshotting a live::NodeReport and
// flushing a final one on SIGTERM/SIGINT, when --run-s elapses, or when its
// Supervisor is gone. With --report it then writes its flight ring once, in
// the binary dump layout, to <report>.trace (the fatal-signal handler
// writes the same file).
//
// With --control-fd (live/control.h) the node binds its UDP socket, says
// ready, and starts its protocol thread and its report clock only at the
// Supervisor's release, whose origin its reports count from; EOF on the
// socket stops it as SIGTERM does. Without one it starts at once, counts
// from its own start, and runs until a signal or --run-s.
//
// Kept as a library entry point (rather than code in the binary) so the
// supervisor, the live experiment and the integration tests all exec the
// exact same runtime, and so argv parsing is unit-testable.
#pragma once

namespace mmrfd::live {

/// Entry point of the mmrfd-node binary. Returns the process exit code:
/// 0 clean shutdown (a closed control socket included), 1 runtime failure
/// (e.g. port already bound), 2 bad arguments (a number that does not parse
/// whole included). While the node runs,
/// SIGTERM and SIGINT are blocked and read from a signalfd on the calling
/// thread; the caller's signal mask is restored before returning.
/// Installs fatal-signal handlers that dump the flight ring.
int node_main(int argc, const char* const* argv);

}  // namespace mmrfd::live
