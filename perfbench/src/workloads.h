// Entry points of the three workloads. Each writes the raw result JSON to
// args.out and returns the process exit code.
#pragma once

#include "common.h"

namespace perfbench {

/// `rank` (reach = false) and `reach` (reach = true): closed-loop jobs.
int RunJobs(const Args& args, bool reach);

/// `serve`: open-loop mixed HTTP traffic against resident pairs.
int RunServe(const Args& args);

}  // namespace perfbench
