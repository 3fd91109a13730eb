// The four workloads. Each builds its op list from the run seed, sets up,
// runs the ops, checks every output against the reference table and fills
// ctx.result (end-to-end metrics) or ctx.layers (traced runs).
#pragma once

#include "common.h"

namespace perfbench {

void run_search_rl(Context& ctx);
void run_heuristic_dc1000(Context& ctx);
void run_daemon_mix(Context& ctx);
void run_chaos_pod64(Context& ctx);

}  // namespace perfbench
