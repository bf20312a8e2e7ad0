/**
 * @file
 * The repository benchmark: Betty's batch pipeline on products_like at
 * paper scale (Fig 14 configuration), timed from outside the program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Every batch takes its seed nodes from the train split in a seeded
 * order and runs sample -> partition/plan -> extract -> one gradient-
 * accumulation step. The benchmark times each of those public calls
 * itself; below Trainer / MultiDeviceEngine / MemoryAwarePlanner it
 * only reads the spans the program already emits, in a separate traced
 * pass. Timed passes run with obs::Trace and obs::Metrics off.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). Any correctness violation prints the object with
 * "correct": false and exits 1; bad arguments exit 2.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/betty.h"
#include "core/micro_batch.h"
#include "data/catalog.h"
#include "kernels/dispatch.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/neighbor_sampler.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#include "trace_breakdown.h"

namespace {

using namespace betty;

constexpr int64_t kMiB = int64_t(1) << 20;

/** Batches every pass runs at least; batch 0 is the untimed warm-up.
 * The deterministic metrics (loss_prefix_mean, device_peak_mib,
 * sim_transfer_s_per_batch) are taken over exactly this prefix, so
 * they do not depend on how many batches the time budget allowed. */
constexpr int64_t kPrefixBatches = 8;

/** Batches the reference pass replays to check loss bit-identity. */
constexpr int64_t kVerifyBatches = 2;

/** Set-up repetitions; setup_s and data.synth_s are their medians. */
constexpr int kSetupRepeats = 3;

/** One benchmark workload. All share products_like at scale 1.0 and
 * 3-layer GraphSAGE-mean, hidden 32, fanout (10,15,20). */
struct WorkloadSpec
{
    std::string name;
    int64_t seedsPerBatch = 512;
    /** K range of MemoryAwarePlanner::plan with BettyPartitioner; a
     * fixed K is the range [K, K], which partitions, extracts and
     * estimates once. */
    int32_t initialK = 16;
    int32_t maxK = 16;
    /** Planner and device budget, bytes; 0 = unlimited (track only). */
    int64_t budgetBytes = 0;
    /** 1 = Trainer; more = MultiDeviceEngine on simulated devices. */
    int32_t devices = 1;
    int64_t cacheBytesPerDevice = 0;
    int32_t lanes = 1;
};

std::optional<WorkloadSpec>
findWorkload(const std::string& name)
{
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    const int32_t lanes =
        int32_t(std::clamp<long>(nproc > 0 ? nproc : 1, 1, 4));
    WorkloadSpec spec;
    spec.name = name;
    if (name == "products_k16") {
        spec.lanes = lanes;
    } else if (name == "products_plan") {
        spec.seedsPerBatch = 1024;
        spec.initialK = 1;
        spec.maxK = 4096;
        spec.budgetBytes = 64 * kMiB;
        spec.lanes = 1;
    } else if (name == "products_k16_cache4dev") {
        spec.devices = 4;
        spec.cacheBytesPerDevice = 8 * kMiB;
        spec.lanes = lanes;
    } else {
        return std::nullopt;
    }
    return spec;
}

/** The single-device path whose losses a workload must reproduce bit
 * for bit: the workload itself, minus devices and caches. */
WorkloadSpec
referenceOf(const WorkloadSpec& spec)
{
    WorkloadSpec reference = spec;
    reference.devices = 1;
    reference.cacheBytesPerDevice = 0;
    return reference;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Everything random in a run derives from the workload seed. */
struct DerivedSeeds
{
    explicit DerivedSeeds(uint64_t seed)
        : data(splitmix64(seed ^ 0x1)), order(splitmix64(seed ^ 0x2)),
          sampler(splitmix64(seed ^ 0x3)), model(splitmix64(seed ^ 0x4))
    {
    }

    uint64_t data;
    uint64_t order;
    uint64_t sampler;
    uint64_t model;
};

/** Seed nodes of batch b: consecutive slices of a seeded permutation
 * of the train split, reshuffled each pass over it, so no batch holds
 * a node twice. */
class SeedOrder
{
  public:
    SeedOrder(std::vector<int64_t> train_nodes, uint64_t seed,
              int64_t batch_size)
        : train_(std::move(train_nodes)), seed_(seed),
          batch_size_(batch_size)
    {
    }

    std::vector<int64_t>
    seedsFor(int64_t batch)
    {
        const int64_t per_epoch = int64_t(train_.size()) / batch_size_;
        const int64_t epoch = batch / per_epoch;
        if (epoch != epoch_) {
            perm_ = train_;
            uint64_t state = splitmix64(seed_ + uint64_t(epoch));
            for (size_t i = perm_.size(); i > 1; --i) {
                state = splitmix64(state);
                std::swap(perm_[i - 1], perm_[state % i]);
            }
            epoch_ = epoch;
        }
        const auto first =
            perm_.begin() + (batch % per_epoch) * batch_size_;
        return {first, first + batch_size_};
    }

  private:
    std::vector<int64_t> train_;
    uint64_t seed_;
    int64_t batch_size_;
    int64_t epoch_ = -1;
    std::vector<int64_t> perm_;
};

/** What one batch did, as measured from outside the program. */
struct BatchOutcome
{
    double totalSeconds = 0.0;
    double sampleSeconds = 0.0;
    double planSeconds = 0.0;
    double trainSeconds = 0.0;

    double loss = 0.0;
    bool failed = false;
    int32_t k = 0;
    int32_t planAttempts = 0;
    bool planFits = true;
    int64_t maxEstimatedPeak = 0;
    int64_t devicePeakBytes = 0;
    double simTransferSeconds = 0.0;
    double allreduceSimSeconds = 0.0;
    int64_t cacheHits = 0;
    int64_t cacheMisses = 0;
    int64_t cacheSavedBytes = 0;
    double duplication = 1.0;
    double deviceImbalance = 1.0;

    int64_t edges = 0;
    double redundancy = 1.0;
    bool outputsMatchSeeds = false;
};

/** The model, optimizer, trainer or engine, sampler and partitioner
 * of one pass. Installs its device memory model as the allocation
 * observer for its lifetime, so only one Pipeline may exist at once. */
class Pipeline
{
  public:
    Pipeline(const Dataset& dataset, const WorkloadSpec& spec,
             const DerivedSeeds& seeds)
        : spec_(spec), device_(spec.budgetBytes)
    {
        if (spec.devices == 1)
            scope_.emplace(device_);
        SageConfig config;
        config.inputDim = dataset.featureDim();
        config.hiddenDim = 32;
        config.numClasses = dataset.numClasses;
        config.numLayers = 3;
        config.aggregator = AggregatorKind::Mean;
        config.seed = seeds.model;
        model_ = std::make_unique<GraphSage>(config);
        adam_ = std::make_unique<Adam>(model_->parameters(), 0.01f);
        if (spec.devices == 1) {
            trainer_ = std::make_unique<Trainer>(dataset, *model_, *adam_,
                                                 &device_, &transfer_);
            trainer_->setPipeline(true);
        } else {
            MultiDeviceConfig multi;
            multi.numDevices = spec.devices;
            multi.interconnect = InterconnectConfig::nvlink();
            multi.cacheBytesPerDevice = spec.cacheBytesPerDevice;
            multi.cachePolicy = CachePolicy::Lru;
            multi.pipeline = true;
            engine_ = std::make_unique<MultiDeviceEngine>(
                dataset, *model_, *adam_, multi);
        }
        sampler_ = std::make_unique<NeighborSampler>(
            dataset.graph, std::vector<int64_t>{10, 15, 20},
            seeds.sampler);
        planner_ = std::make_unique<MemoryAwarePlanner>(
            model_->memorySpec(), spec.budgetBytes);
    }

    BatchOutcome
    runBatch(const std::vector<int64_t>& seeds)
    {
        BatchOutcome out;
        MultiLayerBatch full;
        std::vector<MultiLayerBatch> micros;
        {
            obs::TraceSpan batch_span("bench/batch");
            Timer batch_timer;
            {
                obs::TraceSpan span("bench/sample");
                Timer timer;
                full = sampler_->sample(seeds);
                out.sampleSeconds = timer.seconds();
            }
            {
                obs::TraceSpan span("bench/plan");
                Timer timer;
                PlanResult plan = planner_->plan(full, partitioner_,
                                                 spec_.initialK, spec_.maxK);
                out.k = plan.k;
                out.planAttempts = plan.attempts;
                out.planFits = plan.fits;
                out.maxEstimatedPeak = plan.maxEstimatedPeak;
                micros = std::move(plan.microBatches);
                out.planSeconds = timer.seconds();
            }
            {
                obs::TraceSpan span("bench/train");
                Timer timer;
                train(micros, out);
                out.trainSeconds = timer.seconds();
            }
            out.totalSeconds = batch_timer.seconds();
        }
        out.failed = out.failed || !std::isfinite(out.loss);

        out.edges = full.totalEdges();
        int64_t micro_inputs = 0;
        std::vector<int64_t> outputs;
        for (const MultiLayerBatch& micro : micros) {
            micro_inputs += int64_t(micro.inputNodes().size());
            const auto nodes = micro.outputNodes();
            outputs.insert(outputs.end(), nodes.begin(), nodes.end());
        }
        out.redundancy = double(micro_inputs) /
                         double(full.inputNodes().size());
        std::vector<int64_t> expected = seeds;
        std::sort(expected.begin(), expected.end());
        std::sort(outputs.begin(), outputs.end());
        out.outputsMatchSeeds = outputs == expected;
        return out;
    }

  private:
    void
    train(const std::vector<MultiLayerBatch>& micros, BatchOutcome& out)
    {
        if (trainer_) {
            const EpochStats stats = trainer_->trainMicroBatches(micros);
            out.loss = stats.loss;
            out.failed = stats.oom || stats.oomEvents > 0 || stats.aborted;
            out.devicePeakBytes = stats.peakBytes;
            out.simTransferSeconds = stats.transferSeconds;
            return;
        }
        const double allreduce_before = engine_->interconnect().seconds();
        const MultiDeviceStats stats = engine_->trainMicroBatches(micros);
        out.loss = stats.loss;
        out.failed = stats.oom;
        out.devicePeakBytes = stats.maxDevicePeakBytes;
        // Host links run in parallel; the slowest sets the batch's
        // transfer time.
        for (const double seconds : stats.deviceTransferSeconds)
            out.simTransferSeconds =
                std::max(out.simTransferSeconds, seconds);
        out.allreduceSimSeconds =
            engine_->interconnect().seconds() - allreduce_before;
        out.cacheHits = stats.cacheHits;
        out.cacheMisses = stats.cacheMisses;
        out.cacheSavedBytes = stats.cacheSavedBytes;
        out.duplication = stats.duplicationFactor;
        double busiest = 0.0;
        double busy_sum = 0.0;
        for (const double seconds : stats.deviceSeconds) {
            busiest = std::max(busiest, seconds);
            busy_sum += seconds;
        }
        const double mean = busy_sum / double(stats.deviceSeconds.size());
        out.deviceImbalance = mean > 0.0 ? busiest / mean : 1.0;
    }

    WorkloadSpec spec_;
    DeviceMemoryModel device_;
    std::optional<DeviceMemoryModel::Scope> scope_;
    std::unique_ptr<GraphSage> model_;
    std::unique_ptr<Adam> adam_;
    TransferModel transfer_;
    std::unique_ptr<Trainer> trainer_;
    std::unique_ptr<MultiDeviceEngine> engine_;
    std::unique_ptr<NeighborSampler> sampler_;
    BettyPartitioner partitioner_;
    std::unique_ptr<MemoryAwarePlanner> planner_;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** FNV-1a over the bit patterns of per-batch losses. */
uint64_t
lossDigest(const std::vector<BatchOutcome>& batches, size_t count)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < count && i < batches.size(); ++i) {
        uint64_t bits = 0;
        std::memcpy(&bits, &batches[i].loss, sizeof(bits));
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }
    return hash;
}

bool
sameLossBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The dataset and the seed-node order of one workload seed. */
struct Inputs
{
    std::unique_ptr<Dataset> dataset;
    std::unique_ptr<SeedOrder> order;
};

class Bench
{
  public:
    Bench(WorkloadSpec spec, uint64_t seed, double seconds)
        : spec_(std::move(spec)), seeds_(seed), seconds_(seconds)
    {
    }

    /** Synthesize the inputs and build the first pipeline, several
     * times; keeps the last. */
    void
    setUp()
    {
        std::vector<double> setup_times;
        std::vector<double> synth_times;
        for (int rep = 0; rep < kSetupRepeats; ++rep) {
            pipeline_.reset();
            inputs_ = Inputs{};
            Timer setup_timer;
            Timer synth_timer;
            inputs_.dataset = std::make_unique<Dataset>(
                loadCatalogDataset("products_like", 1.0, seeds_.data));
            synth_times.push_back(synth_timer.seconds());
            inputs_.order = std::make_unique<SeedOrder>(
                inputs_.dataset->trainNodes, seeds_.order,
                spec_.seedsPerBatch);
            pipeline_ = std::make_unique<Pipeline>(*inputs_.dataset,
                                                   spec_, seeds_);
            setup_times.push_back(setup_timer.seconds());
        }
        setupSeconds_ = median(setup_times);
        synthSeconds_ = median(synth_times);
    }

    /** Run batches until the time budget is spent (at least the
     * prefix); batch 0 is an untimed warm-up. */
    std::vector<BatchOutcome>
    runTimed()
    {
        std::vector<BatchOutcome> batches;
        double timed = 0.0;
        for (int64_t b = 0;; ++b) {
            batches.push_back(
                pipeline_->runBatch(inputs_.order->seedsFor(b)));
            if (b > 0)
                timed += batches.back().totalSeconds;
            if (b + 1 >= kPrefixBatches && timed >= seconds_)
                break;
        }
        return batches;
    }

    /** A fresh pipeline over the first @p count batches. */
    std::vector<BatchOutcome>
    replay(const WorkloadSpec& spec, int64_t count,
           const std::function<void(int64_t)>& before_batch = {})
    {
        pipeline_.reset();
        pipeline_ = std::make_unique<Pipeline>(*inputs_.dataset, spec,
                                               seeds_);
        std::vector<BatchOutcome> batches;
        for (int64_t b = 0; b < count; ++b) {
            if (before_batch)
                before_batch(b);
            batches.push_back(
                pipeline_->runBatch(inputs_.order->seedsFor(b)));
        }
        return batches;
    }

    const WorkloadSpec& spec() const { return spec_; }
    double setupSeconds() const { return setupSeconds_; }
    double synthSeconds() const { return synthSeconds_; }

  private:
    WorkloadSpec spec_;
    DerivedSeeds seeds_;
    double seconds_;
    Inputs inputs_;
    std::unique_ptr<Pipeline> pipeline_;
    double setupSeconds_ = 0.0;
    double synthSeconds_ = 0.0;
};

/**
 * Correctness gate over one pass; appends every violation. A batch
 * whose device peak went over the budget is an OOM episode: it counts
 * as a failed batch (the result's "failed"), not as a violation, since
 * the planner's estimate can sit within the estimator's known
 * under-prediction of the budget.
 */
void
gate(const std::vector<BatchOutcome>& batches, const char* pass,
     std::vector<std::string>& violations)
{
    for (size_t b = 0; b < batches.size(); ++b) {
        const BatchOutcome& batch = batches[b];
        const std::string where =
            std::string(pass) + " batch " + std::to_string(b) + ": ";
        if (!std::isfinite(batch.loss))
            violations.push_back(where + "non-finite loss");
        if (!batch.outputsMatchSeeds)
            violations.push_back(
                where + "micro-batch outputs are not the seeds, each once");
        if (!batch.planFits)
            violations.push_back(where + "plan does not fit the budget");
    }
}

/** Per-batch losses of @p got must equal @p want's bit for bit. */
void
gateSameLosses(const std::vector<BatchOutcome>& want,
               const std::vector<BatchOutcome>& got, const char* what,
               std::vector<std::string>& violations)
{
    for (size_t b = 0; b < got.size() && b < want.size(); ++b)
        if (!sameLossBits(want[b].loss, got[b].loss))
            violations.push_back(std::string(what) + ": batch " +
                                 std::to_string(b) + " loss differs");
}

void
printResult(bool correct, int64_t attempted, int64_t failed,
            const std::vector<Metric>& metrics)
{
    for (const Metric& metric : metrics)
        std::printf("metric %-28s %.6g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", (long long)attempted,
                (long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
hostPeakRssMiB()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/** End-to-end metrics of the timed pass (batch 0 excluded from
 * timings, the deterministic ones over the fixed prefix). */
std::vector<Metric>
endToEnd(const Bench& bench, const std::vector<BatchOutcome>& batches)
{
    std::vector<double> batch_seconds;
    double timed = 0.0;
    for (size_t b = 1; b < batches.size(); ++b) {
        batch_seconds.push_back(batches[b].totalSeconds);
        timed += batches[b].totalSeconds;
    }
    double transfer = 0.0;
    double loss = 0.0;
    int64_t peak = 0;
    for (int64_t b = 0; b < kPrefixBatches; ++b) {
        transfer += batches[size_t(b)].simTransferSeconds;
        loss += batches[size_t(b)].loss;
        peak = std::max(peak, batches[size_t(b)].devicePeakBytes);
    }
    // The loss after the prefix falls ~0.4 nats per step there and
    // spreads ~20% across seeds; the prefix mean spreads ~5%.
    std::printf("batch_s_p50 over %zu timed batches; loss after %lld "
                "steps: %.6g\n",
                batch_seconds.size(), (long long)(kPrefixBatches - 1),
                batches[size_t(kPrefixBatches - 1)].loss);
    const double prefix = double(kPrefixBatches);
    return {
        {"setup_s", bench.setupSeconds(), "s"},
        {"seeds_per_s",
         double(bench.spec().seedsPerBatch) * double(batch_seconds.size()) /
             timed,
         "1/s"},
        {"batch_s_p50", median(batch_seconds), "s"},
        {"sim_transfer_s_per_batch", transfer / prefix, "s"},
        {"device_peak_mib", double(peak) / double(kMiB), "MiB"},
        {"loss_prefix_mean", loss / prefix, "nats"},
    };
}

/** Sum of the self times of @p names per traced batch. */
double
selfPerBatch(const std::map<std::string, perfbench::SpanTotals>& totals,
             std::initializer_list<const char*> names, double batches)
{
    double seconds = 0.0;
    for (const char* name : names) {
        const auto it = totals.find(name);
        if (it != totals.end())
            seconds += it->second.selfSeconds;
    }
    return seconds / batches;
}

/** Per-layer metrics, per batch of the traced pass (tracing and
 * metrics on from batch 1). @p untraced is an untraced pass over the
 * same batches, the base of obs.trace_overhead_x. */
std::vector<Metric>
perLayer(const Bench& bench, const std::vector<BatchOutcome>& untraced,
         const std::vector<BatchOutcome>& traced,
         const std::map<std::string, perfbench::SpanTotals>& totals)
{
    const WorkloadSpec& spec = bench.spec();
    const double n = double(traced.size() - 1);
    auto counter = [&](const char* name) {
        return double(obs::Metrics::counter(name).value()) / n;
    };
    auto mean_of = [&](auto field) {
        double sum = 0.0;
        for (size_t b = 1; b < traced.size(); ++b)
            sum += double(field(traced[b]));
        return sum / n;
    };
    auto batch_p50 = [](const std::vector<BatchOutcome>& batches) {
        std::vector<double> values;
        for (size_t b = 1; b < batches.size(); ++b)
            values.push_back(batches[b].totalSeconds);
        return median(values);
    };

    int64_t hits = 0;
    int64_t lookups = 0;
    double peak_over_estimate = 0.0;
    for (size_t b = 1; b < traced.size(); ++b) {
        hits += traced[b].cacheHits;
        lookups += traced[b].cacheHits + traced[b].cacheMisses;
        // Devices of the engine hold no parameters or optimizer state,
        // so only a single device's peak matches the estimate's scope.
        if (spec.devices == 1)
            peak_over_estimate = std::max(
                peak_over_estimate, double(traced[b].devicePeakBytes) /
                                        double(traced[b].maxEstimatedPeak));
    }
    const perfbench::SpanTotals step = [&] {
        const auto it = totals.find("bench/train");
        return it == totals.end() ? perfbench::SpanTotals{} : it->second;
    }();

    return {
        {"data.synth_s", bench.synthSeconds(), "s"},
        {"memory.host_peak_rss_mib", hostPeakRssMiB(), "MiB"},
        {"sampling.sample_s",
         mean_of([](const BatchOutcome& o) { return o.sampleSeconds; }),
         "s"},
        {"sampling.edges",
         mean_of([](const BatchOutcome& o) { return o.edges; }), "count"},
        {"partition.reg_build_s",
         selfPerBatch(totals, {"partition/reg_build"}, n), "s"},
        {"partition.kway_s",
         selfPerBatch(totals,
                      {"partition/kway", "partition/kway_warm",
                       "partition/coarsen", "partition/initial",
                       "partition/refine"},
                      n),
         "s"},
        {"partition.runs", counter("partition.runs"), "count"},
        {"core.plan_s",
         mean_of([](const BatchOutcome& o) { return o.planSeconds; }),
         "s"},
        {"core.extract_s",
         selfPerBatch(totals, {"partition/extract_micro_batches"}, n), "s"},
        {"core.k", mean_of([](const BatchOutcome& o) { return o.k; }),
         "count"},
        {"core.plan_attempts",
         mean_of([](const BatchOutcome& o) { return o.planAttempts; }),
         "count"},
        {"core.redundancy_x",
         mean_of([](const BatchOutcome& o) { return o.redundancy; }), "x"},
        {"memory.estimate_s", selfPerBatch(totals, {"plan/evaluate_k"}, n),
         "s"},
        {"memory.peak_over_estimate", peak_over_estimate, "x"},
        {"memory.transfer_bytes", counter("transfer.bytes"), "B"},
        {"memory.allreduce_sim_s",
         mean_of([](const BatchOutcome& o) { return o.allreduceSimSeconds; }),
         "s"},
        {"cache.hit_ratio", lookups ? double(hits) / double(lookups) : 0.0,
         "ratio"},
        {"cache.bytes_saved",
         mean_of([](const BatchOutcome& o) { return o.cacheSavedBytes; }),
         "B"},
        {"train.step_s",
         mean_of([](const BatchOutcome& o) { return o.trainSeconds; }),
         "s"},
        {"train.gather_s",
         selfPerBatch(totals, {"train/gather", "multi/gather"}, n), "s"},
        {"train.upload_s", selfPerBatch(totals, {"train/upload"}, n), "s"},
        {"train.forward_s",
         selfPerBatch(totals, {"train/forward", "train/loss"}, n), "s"},
        {"train.backward_s", selfPerBatch(totals, {"train/backward"}, n),
         "s"},
        {"train.optim_s", selfPerBatch(totals, {"train/step"}, n), "s"},
        {"train.pipeline_wait_s",
         selfPerBatch(totals, {"train/pipeline_wait"}, n), "s"},
        {"train.dispatch_wait_s",
         selfPerBatch(totals, {"multi/dispatch_wait"}, n), "s"},
        {"train.duplication_x",
         spec.devices > 1
             ? mean_of([](const BatchOutcome& o) { return o.duplication; })
             : 0.0,
         "x"},
        {"train.device_imbalance",
         spec.devices > 1 ? mean_of([](const BatchOutcome& o) {
             return o.deviceImbalance;
         })
                          : 0.0,
         "x"},
        {"kernels.gemm_s", selfPerBatch(totals, {"kernel/gemm"}, n), "s"},
        {"kernels.gemm_ta_s", selfPerBatch(totals, {"kernel/gemm_ta"}, n),
         "s"},
        {"kernels.gemm_tb_s", selfPerBatch(totals, {"kernel/gemm_tb"}, n),
         "s"},
        {"kernels.gather_aggregate_s",
         selfPerBatch(totals, {"kernel/gather_aggregate"}, n), "s"},
        {"kernels.gather_aggregate_bwd_s",
         selfPerBatch(totals, {"kernel/gather_aggregate_bwd"}, n), "s"},
        {"kernels.gather_rows_s",
         selfPerBatch(totals, {"kernel/gather_rows"}, n), "s"},
        {"kernels.gemm_flops", counter("kernel.gemm.flops"), "count"},
        {"kernels.agg_edges", counter("kernel.agg.edges"), "count"},
        {"obs.trace_overhead_x", batch_p50(traced) / batch_p50(untraced),
         "x"},
        {"obs.span_coverage",
         step.inclusiveSeconds > 0.0
             ? 1.0 - step.selfSeconds / step.inclusiveSeconds
             : 0.0,
         "ratio"},
    };
}

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "products_k16|products_plan|products_k16_cache4dev "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0)
            usage("arguments come in --name value pairs");
        args[argv[i] + 2] = argv[i + 1];
    }
    for (const char* required : {"workload", "seed", "seconds", "trace"})
        if (!args.count(required))
            usage((std::string("missing --") + required).c_str());
    if (args.size() != 4)
        usage("unknown argument");
    const std::optional<WorkloadSpec> spec = findWorkload(args["workload"]);
    if (!spec)
        usage("unknown workload");
    char* end = nullptr;
    const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
    if (*end != '\0' || args["seed"].empty())
        usage("--seed must be a non-negative integer");
    const double seconds = std::strtod(args["seconds"].c_str(), &end);
    if (*end != '\0' || !(seconds > 0.0) || seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    const std::string trace_arg = args["trace"];
    if (trace_arg != "0" && trace_arg != "1")
        usage("--trace must be 0 or 1");
    const bool traced_run = trace_arg == "1";

    // Timed passes must not pay for observability.
    if (obs::Trace::enabled() || obs::Metrics::enabled()) {
        std::fprintf(stderr, "perfbench: tracing or metrics are on at "
                             "start; timed passes need both off\n");
        return 1;
    }
    kernels::setKernelMode(kernels::KernelMode::Auto);
    ThreadPool::setGlobalThreads(spec->lanes);
    obs::Trace::setRingCapacity(size_t(1) << 18);

    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("workload %s seed %llu: %lld seeds/batch, %s, %d "
                "device(s), cache %lld MiB/device\n",
                spec->name.c_str(), (unsigned long long)seed,
                (long long)spec->seedsPerBatch,
                spec->initialK == spec->maxK
                    ? ("fixed K=" + std::to_string(spec->maxK)).c_str()
                    : ("planner from K=1, budget " +
                       std::to_string(spec->budgetBytes / kMiB) + " MiB")
                          .c_str(),
                spec->devices,
                (long long)(spec->cacheBytesPerDevice / kMiB));
    std::printf("fingerprint: backend=%s lanes=%d nproc=%ld build=%s\n",
                kernels::backendName(kernels::activeBackend()),
                ThreadPool::globalThreads(), nproc, PERFBENCH_BUILD_TYPE);

    Bench bench(*spec, seed, seconds);
    bench.setUp();
    std::vector<std::string> violations;
    const std::vector<BatchOutcome> timed = bench.runTimed();
    gate(timed, "timed", violations);

    std::vector<BatchOutcome> traced;
    std::vector<BatchOutcome> untraced;
    std::map<std::string, perfbench::SpanTotals> totals;
    if (traced_run) {
        // Same batches from a fresh pipeline; tracing and metrics
        // start after the warm-up batch.
        const int64_t count = int64_t(timed.size());
        traced = bench.replay(*spec, count, [](int64_t b) {
            if (b != 1)
                return;
            obs::Trace::clear();
            obs::Metrics::reset();
            obs::Trace::setEnabled(true);
            obs::Metrics::setEnabled(true);
        });
        obs::Trace::setEnabled(false);
        obs::Metrics::setEnabled(false);
        gate(traced, "traced", violations);
        gateSameLosses(timed, traced, "traced pass vs timed pass",
                       violations);
        if (obs::Trace::droppedEvents() > 0)
            violations.push_back("trace dropped " +
                                 std::to_string(obs::Trace::droppedEvents()) +
                                 " events");
        const std::vector<obs::TraceEvent> events = obs::Trace::snapshot();
        std::printf("trace: %zu spans over %zu batches, %lld dropped\n",
                    events.size(), traced.size() - 1,
                    (long long)obs::Trace::droppedEvents());
        totals = perfbench::spanTotals(events);
        // The base of obs.trace_overhead_x: an untraced pass that, like
        // the traced one, runs after the timed pass has warmed the heap.
        untraced = bench.replay(*spec, count);
        gateSameLosses(timed, untraced, "second untraced pass vs timed pass",
                       violations);
    }

    // Reference pass: the single-device path must reproduce the timed
    // pass's losses bit for bit (a repeat for the single-device
    // workloads, cross-engine equality for the multi-device one).
    const std::vector<BatchOutcome> reference =
        bench.replay(referenceOf(*spec), kVerifyBatches);
    gate(reference, "reference", violations);
    gateSameLosses(reference, timed,
                   spec->devices > 1 ? "multi-device vs single-device"
                                     : "repeat with the same seed",
                   violations);

    int64_t failed = 0;
    for (const BatchOutcome& batch : timed)
        failed += batch.failed ? 1 : 0;
    std::printf("loss digest (first %lld batches): %016llx\n",
                (long long)kPrefixBatches,
                (unsigned long long)lossDigest(timed, kPrefixBatches));
    std::printf("failed_batch_ratio %.6g (%lld of %zu)\n",
                double(failed) / double(timed.size()), (long long)failed,
                timed.size());
    std::printf("host peak RSS %.1f MiB\n", hostPeakRssMiB());
    for (const std::string& violation : violations)
        std::fprintf(stderr, "VIOLATION: %s\n", violation.c_str());

    const bool correct = violations.empty();
    if (traced_run)
        printResult(correct, int64_t(timed.size()), failed,
                    perLayer(bench, untraced, traced, totals));
    else
        printResult(correct, int64_t(timed.size()), failed,
                    endToEnd(bench, timed));
    return correct ? 0 : 1;
}
