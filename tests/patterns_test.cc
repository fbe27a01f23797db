// Classic streaming design patterns on the engine: punctuation-driven state
// purging (Tucker et al. semantics on the dataflow), and the broadcast
// rules / control-stream pattern (dynamic per-record logic updated by a
// second, broadcast input).

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>

#include "common/rng.h"
#include "dataflow/job.h"
#include "dataflow/topology.h"

namespace evo {
namespace {

// ---------------------------------------------------------------------------
// Punctuation-driven purging
// ---------------------------------------------------------------------------

// Accumulates per-key sums; a key-scoped punctuation ("no more records for
// key K") emits the final sum and purges the key's state.
class PunctuatedSumOperator final : public dataflow::Operator {
 public:
  Status Open(dataflow::OperatorContext* ctx) override {
    EVO_RETURN_IF_ERROR(Operator::Open(ctx));
    sum_ = std::make_unique<state::ValueState<int64_t>>(ctx->state(), "sum");
    return Status::OK();
  }

  Status ProcessRecord(Record& record, dataflow::Collector*) override {
    EVO_ASSIGN_OR_RETURN(int64_t cur, sum_->GetOr(0));
    return sum_->Put(cur + record.payload.AsList()[1].AsInt());
  }

  Status OnPunctuation(TimeMs up_to, uint64_t key, bool key_scoped,
                       dataflow::Collector* out) override {
    if (!key_scoped) return Status::OK();
    EVO_ASSIGN_OR_RETURN(auto final_sum, sum_->Get());
    if (final_sum.has_value()) {
      out->Emit(Record(up_to, key, Value(*final_sum)));
      EVO_RETURN_IF_ERROR(sum_->Clear());  // the purge punctuations enable
    }
    return Status::OK();
  }

 private:
  std::unique_ptr<state::ValueState<int64_t>> sum_;
};

TEST(PunctuationPatternTest, KeyScopedPunctuationEmitsAndPurges) {
  // Source: 100 records for each of 3 keys, each key followed by its
  // punctuation ("this key's partition of the input file is done").
  struct Step {
    bool is_punctuation;
    std::string key;
    int64_t amount;
  };
  std::vector<Step> script;
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 100; ++i) {
      script.push_back({false, "k" + std::to_string(k), k + 1});
    }
    script.push_back({true, "k" + std::to_string(k), 0});
  }

  dataflow::Topology topo;
  auto cursor = std::make_shared<std::atomic<size_t>>(0);
  auto src = topo.AddSource("scripted", [&script, cursor] {
    return std::make_unique<dataflow::GeneratorSource>(
        [&script, cursor](uint32_t, uint32_t) {
          size_t i = cursor->fetch_add(1);
          if (i >= script.size()) return dataflow::SourcePoll::End();
          const Step& step = script[i];
          uint64_t key = Value(step.key).Hash();
          if (step.is_punctuation) {
            return dataflow::SourcePoll::Ctl(StreamElement::Punctuation(
                static_cast<TimeMs>(i), key, /*key_scoped=*/true));
          }
          return dataflow::SourcePoll::Of(Record(
              static_cast<TimeMs>(i), key,
              Value::Tuple(step.key, step.amount)));
        });
  });
  auto sum = topo.AddOperator("punct-sum", [] {
    return std::make_unique<PunctuatedSumOperator>();
  }, 2);
  ASSERT_TRUE(topo.Connect(src, sum, dataflow::Partitioning::kHash).ok());
  dataflow::CollectingSink sink;
  topo.Sink(sum, "sink", sink.AsSinkFn());

  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(30000).ok());

  // One emission per punctuated key with the exact sum; state purged.
  auto results = sink.Snapshot();
  ASSERT_EQ(results.size(), 3u);
  std::multiset<int64_t> sums;
  for (const Record& r : results) sums.insert(r.payload.AsInt());
  EXPECT_EQ(sums, (std::multiset<int64_t>{100, 200, 300}));
  uint64_t residual_state = 0;
  for (auto* task : runner.TasksOf("punct-sum")) {
    residual_state += task->backend()->ApproxEntryCount();
  }
  runner.Stop();
  EXPECT_EQ(residual_state, 0u);
}

// Key-scoped punctuations pass through operators that don't consume them,
// so downstream consumers still see them.
TEST(PunctuationPatternTest, PunctuationsForwardThroughOperators) {
  dataflow::Topology topo;
  auto step = std::make_shared<std::atomic<int>>(0);
  auto src = topo.AddSource("src", [step] {
    return std::make_unique<dataflow::GeneratorSource>(
        [step](uint32_t, uint32_t) {
          int i = step->fetch_add(1);
          if (i == 0) {
            return dataflow::SourcePoll::Of(
                Record(1, 42, Value::Tuple("k", int64_t{5})));
          }
          if (i == 1) {
            return dataflow::SourcePoll::Ctl(
                StreamElement::Punctuation(10, 42, true));
          }
          return dataflow::SourcePoll::End();
        });
  });
  // A plain map in the middle.
  auto mapped = topo.Map(src, "identity", [](const Value& v) { return v; });
  auto sum = topo.AddOperator("punct-sum", [] {
    return std::make_unique<PunctuatedSumOperator>();
  });
  ASSERT_TRUE(topo.Connect(mapped, sum, dataflow::Partitioning::kHash).ok());
  dataflow::CollectingSink sink;
  topo.Sink(sum, "sink", sink.AsSinkFn());

  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(20000).ok());
  runner.Stop();

  ASSERT_EQ(sink.Count(), 1u);
  EXPECT_EQ(sink.Snapshot()[0].payload.AsInt(), 5);
}

// ---------------------------------------------------------------------------
// Broadcast rules / control stream
// ---------------------------------------------------------------------------

// Input 0 (hash): (category, amount) data. Input 1 (broadcast): (category,
// threshold) rules. Emits data records whose amount exceeds the *current*
// threshold for their category — dynamic logic without redeploying.
// Counts every rule update it applies into `rules_applied`.
class RuleFilterOperator final : public dataflow::Operator {
 public:
  explicit RuleFilterOperator(std::atomic<int>* rules_applied)
      : rules_applied_(rules_applied) {}

  Status ProcessRecord(Record& record, dataflow::Collector* out) override {
    return ProcessRecordFrom(0, record, out);
  }

  Status ProcessRecordFrom(size_t input, Record& record,
                           dataflow::Collector* out) override {
    const auto& l = record.payload.AsList();
    if (input == 1) {  // rule update (broadcast: every subtask sees it)
      rules_[l[0].AsString()] = l[1].AsInt();
      rules_applied_->fetch_add(1);
      return Status::OK();
    }
    auto rule = rules_.find(l[0].AsString());
    int64_t threshold = rule == rules_.end() ? INT64_MAX : rule->second;
    if (l[1].AsInt() > threshold) out->Emit(std::move(record));
    return Status::OK();
  }

 private:
  std::map<std::string, int64_t> rules_;  // broadcast state (per subtask)
  std::atomic<int>* rules_applied_;
};

// Stays idle until `open()` holds, then reads its inner source.
class GatedSource final : public dataflow::Source {
 public:
  GatedSource(std::unique_ptr<dataflow::Source> inner,
              std::function<bool()> open)
      : inner_(std::move(inner)), open_(std::move(open)) {}

  Status Open(uint32_t subtask_index, uint32_t parallelism) override {
    return inner_->Open(subtask_index, parallelism);
  }
  dataflow::SourcePoll Next() override {
    return open_() ? inner_->Next() : dataflow::SourcePoll::Idle();
  }

 private:
  std::unique_ptr<dataflow::Source> inner_;
  std::function<bool()> open_;
};

TEST(BroadcastRulesTest, RuleUpdatesChangeFilteringLive) {
  // Rules arrive before data in event order; thresholds differ per
  // category.
  dataflow::ReplayableLog rules;
  rules.Append(0, Value::Tuple("electronics", int64_t{100}));
  rules.Append(1, Value::Tuple("books", int64_t{20}));

  dataflow::ReplayableLog data;
  Rng rng(33);
  int expected = 0;
  for (int i = 0; i < 2000; ++i) {
    bool electronics = rng.NextBool();
    int64_t amount = static_cast<int64_t>(rng.NextBounded(200));
    if (electronics ? amount > 100 : amount > 20) ++expected;
    data.Append(100 + i, Value::Tuple(electronics ? "electronics" : "books",
                                      amount));
  }

  // The data source waits until every filter subtask has applied both
  // rules, so each data record meets the final thresholds.
  constexpr int kFilterParallelism = 3;
  std::atomic<int> rules_applied{0};
  dataflow::Topology topo;
  auto data_src = topo.AddSource("data", [&data, &rules_applied] {
    return std::make_unique<GatedSource>(
        std::make_unique<dataflow::LogSource>(&data), [&rules_applied] {
          return rules_applied.load() == 2 * kFilterParallelism;
        });
  });
  auto rule_src = topo.AddSource("rules", [&rules] {
    return std::make_unique<dataflow::LogSource>(&rules);
  });
  auto keyed = topo.KeyBy(data_src, "by-cat", [](const Value& v) {
    return v.AsList()[0];
  });
  auto filter = topo.AddOperator("rule-filter", [&rules_applied] {
    return std::make_unique<RuleFilterOperator>(&rules_applied);
  }, kFilterParallelism);
  // Ordinal 0: data (hash). Ordinal 1: rules (broadcast to all subtasks).
  ASSERT_TRUE(topo.Connect(keyed, filter, dataflow::Partitioning::kHash).ok());
  ASSERT_TRUE(
      topo.Connect(rule_src, filter, dataflow::Partitioning::kBroadcast).ok());
  dataflow::CollectingSink sink;
  topo.Sink(filter, "sink", sink.AsSinkFn());

  dataflow::JobRunner runner(topo, dataflow::JobConfig{});
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.AwaitCompletion(30000).ok());
  runner.Stop();

  EXPECT_EQ(sink.Count(), static_cast<size_t>(expected));
  for (const Record& r : sink.Snapshot()) {
    const auto& l = r.payload.AsList();
    int64_t threshold = l[0].AsString() == "electronics" ? 100 : 20;
    EXPECT_GT(l[1].AsInt(), threshold);
  }
}

}  // namespace
}  // namespace evo
