// check.hpp — umbrella header for ffq::check.
//
// One include gives a TU the whole checking toolkit:
//   yield.hpp    — the yield, spin and mutation hooks the queues compile
//                  against
//   schedule.hpp — compact replayable schedule strings
//   drivers.hpp  — seeded-random, replay and delay-bounded DFS drivers
//   oracles.hpp  — conservation, per-producer FIFO, Wing–Gong checker
//   harness.hpp  — programs over the real queues (FFQ_CHECK=1 builds),
//                  stepped as runtime::fiber_scheduler fibers
//   explore.hpp  — fuzz / delay-bounded DFS / replay of those programs
#pragma once

#include "ffq/check/drivers.hpp"
#include "ffq/check/explore.hpp"
#include "ffq/check/harness.hpp"
#include "ffq/check/oracles.hpp"
#include "ffq/check/schedule.hpp"
#include "ffq/check/yield.hpp"
