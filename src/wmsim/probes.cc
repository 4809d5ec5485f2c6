/**
 * @file
 * The probe sinks that sample the end-of-cycle view: occupancy
 * histograms, the Chrome pipeline trace and the flight-recorder time
 * series; and makeProbes, which builds the sinks a SimConfig asks for.
 */

#include <algorithm>

#include "obs/histogram.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "support/diag.h"
#include "support/str.h"
#include "wmsim/probe.h"

namespace wmstream::wmsim {

const char *const kQueueNames[kNumQueues] = {
    "in_fifo.int0",  "in_fifo.int1",  "in_fifo.flt0",  "in_fifo.flt1",
    "out_fifo.int0", "out_fifo.int1", "out_fifo.flt0", "out_fifo.flt1",
    "cc_fifo.int",   "cc_fifo.flt",   "inst_q.ieu",    "inst_q.feu",
    "store_q.int",   "store_q.flt",
};

int
queueDepth(const SimConfig &cfg, int q)
{
    return q < qCc(0)     ? cfg.dataFifoDepth
           : q < qInst(0) ? cfg.ccFifoDepth
           : q < qStore(0) ? cfg.instQueueDepth
                           : cfg.storeQueueDepth;
}

std::vector<std::string>
simTimeSeriesChannels()
{
    std::vector<std::string> names;
    const auto rows = SimStats{}.counters();
    for (const SimCounter &c : rows)
        names.emplace_back(c.name);
    for (const SimCounter &c : rows)
        if (c.causes)
            for (size_t k = 1; k < static_cast<size_t>(StallCause::kCount);
                 ++k)
                names.push_back(std::string(c.causePrefix) +
                                stallCauseName(static_cast<StallCause>(k)));
    for (const char *q : kQueueNames)
        names.push_back(std::string("occ.") + q);
    names.push_back("scu.active");
    return names;
}

namespace {

uint64_t
activeStreams(const CycleView &v)
{
    uint64_t n = 0;
    for (const StreamView &s : v.streams)
        n += s.active ? 1 : 0;
    return n;
}

/** SimConfig::collectOccupancy: one histogram sample per queue per cycle. */
class OccupancyProbe final : public Probe
{
  public:
    void
    cycleEnd(const CycleView &v) override
    {
        for (int q = 0; q < kNumQueues; ++q)
            hist_[q].add(static_cast<int64_t>(v.levels[q]));
    }

    void
    runEnd(uint64_t /*cycle*/, SimStats &stats) override
    {
        stats.occupancy.reserve(kNumQueues);
        for (int q = 0; q < kNumQueues; ++q)
            stats.occupancy.push_back({kQueueNames[q], hist_[q]});
    }

  private:
    obs::Histogram hist_[kNumQueues];
};

/**
 * SimConfig::trace: occupancy and activity counters (emitted when
 * they change) and one duration event per stream on its SCU's track.
 */
class TraceProbe final : public Probe
{
  public:
    TraceProbe(obs::TraceWriter &tw, int numScus) : tw_(tw)
    {
        for (double &v : last_)
            v = -1.0;
        for (int i = 0; i < numScus; ++i)
            slots_.emplace_back().tid = tw.track(strFormat("SCU %d", i));
    }

    void
    cycleEnd(const CycleView &v) override
    {
        int k = 0;
        auto sample = [&](const char *name, double value) {
            if (last_[k] != value) {
                last_[k] = value;
                tw_.counter(name, v.cycle, value);
            }
            ++k;
        };
        for (int q = 0; q < kNumQueues; ++q)
            sample(kQueueNames[q], static_cast<double>(v.levels[q]));
        // Instructions the IFU handled and each unit executed this cycle.
        const SimStats &st = v.stats;
        uint64_t done[3] = {st.instsDispatched + st.ifuExecuted,
                            st.ieuExecuted, st.feuExecuted};
        const char *const names[3] = {"ifu.dispatched", "busy.ieu",
                                      "busy.feu"};
        for (int i = 0; i < 3; ++i) {
            sample(names[i], static_cast<double>(done[i] - prev_[i]));
            prev_[i] = done[i];
        }
        sample("busy.veu", v.veuActive ? 1.0 : 0.0);
        sample("scu.active", static_cast<double>(activeStreams(v)));

        for (size_t i = 0; i < v.streams.size(); ++i) {
            const StreamView &s = v.streams[i];
            Slot &t = slots_[i];
            if (s.active && !t.active) {
                t.start = v.cycle;
                t.name = strFormat("%s %s.f%d n=%lld stride=%lld",
                                   s.input ? "Sin" : "Sout",
                                   s.side ? "flt" : "int", s.fifo,
                                   static_cast<long long>(s.count),
                                   static_cast<long long>(s.stride));
            } else if (!s.active && t.active) {
                complete(t, v.cycle);
            }
            t.active = s.active;
        }
    }

    void
    runEnd(uint64_t cycle, SimStats & /*stats*/) override
    {
        // Close out streams still active at exit.
        for (Slot &t : slots_)
            if (t.active)
                complete(t, cycle);
    }

  private:
    struct Slot
    {
        int tid = 0;
        bool active = false;
        uint64_t start = 0;
        std::string name;
    };

    void
    complete(const Slot &t, uint64_t cycle)
    {
        tw_.complete(t.tid, t.name, t.start,
                     std::max<uint64_t>(cycle - t.start, 1));
    }

    obs::TraceWriter &tw_;
    /** Last emitted value per counter series (emit on change). */
    double last_[kNumQueues + 5];
    /** Dispatched and executed totals at the previous cycle end. */
    uint64_t prev_[3] = {};
    std::vector<Slot> slots_;
};

/**
 * SimConfig::timeseries: per-window counts. Cumulative channels are
 * end-of-cycle deltas against the previous cycle, so window counts
 * telescope to the final aggregates exactly (the invariant wmreport
 * --timeline checks); level channels add each cycle's value.
 */
class TimeSeriesProbe final : public Probe
{
  public:
    explicit TimeSeriesProbe(obs::TimeSeries &ts) : ts_(ts)
    {
        size_t channels = simTimeSeriesChannels().size();
        WS_ASSERT(ts.channels() == channels,
                  "time series not built from simTimeSeriesChannels()");
        prev_.assign(channels - kNumQueues - 1, 0);
    }

    void
    cycleEnd(const CycleView &v) override
    {
        ts_.advanceTo(v.cycle);
        size_t i = 0;
        auto cumulative = [&](uint64_t value) {
            if (value != prev_[i]) {
                ts_.add(i, value - prev_[i]);
                prev_[i] = value;
            }
            ++i;
        };
        const auto rows = v.stats.counters();
        for (const SimCounter &c : rows)
            cumulative(c.value);
        for (const SimCounter &c : rows)
            if (c.causes)
                for (size_t k = 1;
                     k < static_cast<size_t>(StallCause::kCount); ++k)
                    cumulative(c.causes->byCause[k]);
        for (uint32_t level : v.levels) {
            if (level)
                ts_.add(i, level);
            ++i;
        }
        if (uint64_t n = activeStreams(v))
            ts_.add(i, n);
    }

    void
    runEnd(uint64_t cycle, SimStats & /*stats*/) override
    {
        // Close the final (possibly partial) window so window cycles
        // sum to the run's cycles. A RuntimeError leaves its partial
        // cycle unsampled, so cumulative totals may undercount;
        // consumers skip the sum check on a faulted run.
        ts_.finish(cycle);
    }

  private:
    obs::TimeSeries &ts_;
    std::vector<uint64_t> prev_;
};

/** Several sinks behind one probe, fed in order. */
class ProbeFanout final : public Probe
{
  public:
    explicit ProbeFanout(std::vector<std::unique_ptr<Probe>> sinks)
        : sinks_(std::move(sinks))
    {
    }

#define WS_FAN_OUT(method, params, args)                                  \
    void method params override                                           \
    {                                                                     \
        for (const auto &p : sinks_)                                      \
            p->method args;                                               \
    }
    WS_FAN_OUT(dispatch, (int u, int64_t pc, bool e), (u, pc, e))
    WS_FAN_OUT(exec, (int u, int64_t pc, bool d), (u, pc, d))
    WS_FAN_OUT(ifu, (int64_t pc), (pc))
    WS_FAN_OUT(stall, (int u, StallCause c), (u, c))
    WS_FAN_OUT(push, (int q), (q))
    WS_FAN_OUT(pop, (int q), (q))
    WS_FAN_OUT(readIssue, (int s), (s))
    WS_FAN_OUT(readDeliver, (int s, int f, bool o), (s, f, o))
    WS_FAN_OUT(readDiscard, (int s, int f), (s, f))
    WS_FAN_OUT(storeCommit, (int s), (s))
    WS_FAN_OUT(streamStart, (int i, int64_t pc), (i, pc))
    WS_FAN_OUT(streamIssue, (int i), (i))
    WS_FAN_OUT(streamWrite, (int i), (i))
    WS_FAN_OUT(streamRetire, (int i), (i))
    WS_FAN_OUT(streamCancel, (int i), (i))
    WS_FAN_OUT(veuElement, (), ())
    WS_FAN_OUT(cycleEnd, (const CycleView &v), (v))
    WS_FAN_OUT(runEnd, (uint64_t c, SimStats &s), (c, s))
#undef WS_FAN_OUT

  private:
    std::vector<std::unique_ptr<Probe>> sinks_;
};

} // anonymous namespace

std::unique_ptr<Probe>
makeProbes(const SimConfig &cfg, const rtl::Executable &exe)
{
    std::vector<std::unique_ptr<Probe>> sinks;
    if (cfg.collectOccupancy)
        sinks.push_back(std::make_unique<OccupancyProbe>());
    if (cfg.trace)
        sinks.push_back(
            std::make_unique<TraceProbe>(*cfg.trace, cfg.numSCUs));
    if (cfg.timeseries)
        sinks.push_back(
            std::make_unique<TimeSeriesProbe>(*cfg.timeseries));
    if (cfg.critpath)
        sinks.push_back(makeCritPathProbe(cfg, exe));
    if (sinks.size() <= 1)
        return sinks.empty() ? nullptr : std::move(sinks.front());
    return std::make_unique<ProbeFanout>(std::move(sinks));
}

} // namespace wmstream::wmsim
