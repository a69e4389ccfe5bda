#ifndef SPLITWISE_CORE_REPORT_IO_H_
#define SPLITWISE_CORE_REPORT_IO_H_

#include <string>

#include "core/cluster.h"
#include "core/slo.h"

namespace splitwise::core {

/**
 * Serialize a run report (and optionally its SLO evaluation) as a
 * JSON object - the hand-off format for external plotting or
 * regression-tracking tooling.
 *
 * Layout:
 *   {
 *     "design": {...}, "requests": {...latency summaries...},
 *     "pools": {"prompt": {...}, "token": {...}},
 *     "transfers": {...}, "scheduler": {...}, "slo": {...}?
 *   }
 */
std::string reportToJson(const RunReport& report,
                         const SloReport* slo = nullptr);

/** Write reportToJson() to a file. */
void writeReportJson(const RunReport& report, const std::string& path,
                     const SloReport* slo = nullptr);

}  // namespace splitwise::core

#endif  // SPLITWISE_CORE_REPORT_IO_H_
