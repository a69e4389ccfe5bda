#include "telemetry/timeseries.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/summary.h"
#include "sim/log.h"

namespace splitwise::telemetry {

namespace {

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

}  // namespace

int
TimeSeries::columnIndex(const std::string& name) const
{
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (columns[i] == name)
            return static_cast<int>(i);
    }
    return -1;
}

std::vector<double>
TimeSeries::column(const std::string& name) const
{
    const int idx = columnIndex(name);
    if (idx < 0)
        sim::fatal("TimeSeries: no column named '" + name + "'");
    std::vector<double> out;
    out.reserve(rows.size());
    for (const auto& row : rows)
        out.push_back(row[static_cast<std::size_t>(idx)]);
    return out;
}

std::string
TimeSeries::toCsv() const
{
    std::ostringstream out;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i)
            out << ',';
        out << columns[i];
    }
    out << '\n';
    for (const auto& row : rows) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                out << ',';
            out << num(row[i]);
        }
        out << '\n';
    }
    return out.str();
}

std::string
TimeSeries::toJson(std::size_t histogram_buckets) const
{
    std::ostringstream out;
    out << "{\"columns\":[";
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i)
            out << ',';
        out << '"' << columns[i] << '"';
    }
    out << "],\"samples\":" << rows.size();

    // Per-column distribution summary, skipping the time axis.
    out << ",\"summary\":{";
    bool first = true;
    for (std::size_t c = 1; c < columns.size(); ++c) {
        metrics::Summary s;
        for (const auto& row : rows)
            s.add(row[c]);
        if (!first)
            out << ',';
        first = false;
        out << '"' << columns[c] << "\":{\"mean\":" << num(s.mean())
            << ",\"min\":" << num(s.min()) << ",\"max\":" << num(s.max())
            << ",\"p50\":" << num(s.p50()) << ",\"histogram\":[";
        const auto hist = s.histogram(histogram_buckets);
        for (std::size_t b = 0; b < hist.size(); ++b) {
            if (b)
                out << ',';
            out << "{\"le\":" << num(hist[b].upperEdge)
                << ",\"count\":" << hist[b].count << '}';
        }
        out << "]}";
    }
    out << '}';

    out << ",\"rows\":[";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r)
            out << ',';
        out << '[';
        for (std::size_t i = 0; i < rows[r].size(); ++i) {
            if (i)
                out << ',';
            out << num(rows[r][i]);
        }
        out << ']';
    }
    out << "]}";
    return out.str();
}

void
TimeSeries::writeCsv(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("TimeSeries::writeCsv: cannot open " + path);
    out << toCsv();
}

TimeSeriesSampler::TimeSeriesSampler(sim::Simulator& simulator,
                                     const MetricsRegistry& registry,
                                     sim::TimeUs interval_us)
    : simulator_(simulator), registry_(registry), interval_(interval_us)
{
    if (interval_ <= 0)
        sim::fatal("TimeSeriesSampler: interval must be positive");
}

void
TimeSeriesSampler::install()
{
    series_.columns.clear();
    series_.columns.push_back("t_s");
    for (const auto& name : registry_.names())
        series_.columns.push_back(name);
    hook_ = simulator_.addTimeAdvanceHook(
        [this](sim::TimeUs next) { onAdvance(next); });
    emitRow(simulator_.now());
    nextSample_ = simulator_.now() + interval_;
}

void
TimeSeriesSampler::onAdvance(sim::TimeUs next)
{
    while (nextSample_ <= next) {
        emitRow(nextSample_);
        nextSample_ += interval_;
    }
}

void
TimeSeriesSampler::sampleNow()
{
    emitRow(simulator_.now());
}

void
TimeSeriesSampler::finish()
{
    emitRow(simulator_.now());
    simulator_.removeTimeAdvanceHook(hook_);
}

void
TimeSeriesSampler::emitRow(sim::TimeUs t)
{
    if (t == lastRowTs_)
        return;  // an on-event sample already landed on this instant
    lastRowTs_ = t;
    std::vector<double> row;
    row.reserve(registry_.size() + 1);
    row.push_back(sim::usToSeconds(t));
    for (double v : registry_.sampleValues())
        row.push_back(v);
    series_.rows.push_back(std::move(row));
}

}  // namespace splitwise::telemetry
