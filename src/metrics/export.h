// Run-trace exporters: turn a run's EventLog / PropertyRecorder into CSV or
// JSON-lines streams for external plotting (gnuplot, pandas). Every
// experiment's figure can be regenerated from these instead of the printed
// tables.
#pragma once

#include <iosfwd>

#include "core/properties.h"
#include "metrics/event_log.h"

namespace mmrfd::metrics {

/// CSV: when_s,observer,subject,kind,tag  (kind in {suspected,cleared,mistake})
void export_events_csv(const EventLog& log, std::ostream& os);

/// CSV: subject,when_s
void export_crashes_csv(const EventLog& log, std::ostream& os);

/// CSV: issuer,seq,terminated_s,winning  (winning = ';'-joined ids,
/// ascending)
void export_queries_csv(const core::PropertyRecorder& recorder,
                        std::ostream& os);

/// JSON-lines; one object per suspicion event, crash, and query record, with
/// a "type" discriminator. Self-contained replay of a run's observable
/// behaviour.
void export_jsonl(const EventLog& log, const core::PropertyRecorder* recorder,
                  std::ostream& os);

}  // namespace mmrfd::metrics
