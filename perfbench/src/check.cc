#include "check.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "od/validator_registry.h"
#include "partition/stripped_partition.h"

namespace perfbench {

std::string DepRecord::ToString() const {
  double error = 0.0;
  std::memcpy(&error, &error_bits, sizeof error);
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%s ctx=0x%llx a=%lld b=%lld opp=%d removal=%lld error=%.17g",
                aod::DependencyKindToString(static_cast<aod::DependencyKind>(kind)),
                static_cast<unsigned long long>(context),
                static_cast<long long>(a), static_cast<long long>(b),
                static_cast<int>(opposite),
                static_cast<long long>(removal_size), error);
  return buf;
}

std::vector<DepRecord> RecordsOf(const aod::DiscoveryResult& result) {
  std::vector<DepRecord> out;
  out.reserve(result.dependencies.size());
  for (const aod::DiscoveredDependency& d : result.dependencies) {
    DepRecord r;
    r.kind = static_cast<uint8_t>(d.kind);
    r.context = d.context.bits();
    r.a = d.a;
    r.b = d.b;
    r.opposite = d.opposite ? 1 : 0;
    r.removal_size = d.removal_size;
    std::memcpy(&r.error_bits, &d.error, sizeof r.error_bits);
    out.push_back(r);
  }
  return out;
}

void EncodeRecords(const std::vector<DepRecord>& records, ByteWriter* w) {
  w->U64(records.size());
  for (const DepRecord& r : records) {
    w->U8(r.kind);
    w->U64(r.context);
    w->I64(r.a);
    w->I64(r.b);
    w->U8(r.opposite);
    w->I64(r.removal_size);
    w->U64(r.error_bits);
  }
}

std::vector<DepRecord> DecodeRecords(ByteReader* r) {
  std::vector<DepRecord> out;
  const uint64_t n = r->U64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    DepRecord d;
    d.kind = r->U8();
    d.context = r->U64();
    d.a = r->I64();
    d.b = r->I64();
    d.opposite = r->U8();
    d.removal_size = r->I64();
    d.error_bits = r->U64();
    out.push_back(d);
  }
  return out;
}

uint64_t Fingerprint(const std::vector<DepRecord>& records) {
  ByteWriter w;
  EncodeRecords(records, &w);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : w.bytes()) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string DescribeMismatch(const std::vector<DepRecord>& got,
                             const std::vector<DepRecord>& want) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(got[i] == want[i])) {
      return "dependency " + std::to_string(i) + ": got {" +
             got[i].ToString() + "} want {" + want[i].ToString() + "}";
    }
  }
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " dependencies, want " +
           std::to_string(want.size());
  }
  return "";
}

int64_t Recheck(const aod::EncodedTable& table,
                const std::vector<DepRecord>& records, double epsilon,
                double afd_error, std::string* first_failure) {
  const int64_t n = table.num_rows();
  aod::PartitionScratch scratch(n);
  std::vector<aod::StrippedPartition> bases;
  for (int c = 0; c < table.num_columns(); ++c) {
    bases.push_back(aod::StrippedPartition::FromColumn(table.column(c)));
  }
  // Context partitions, built left to right from the single-attribute
  // bases and memoized by attribute set.
  std::map<uint64_t, aod::StrippedPartition> contexts;
  auto context_of = [&](uint64_t bits) -> const aod::StrippedPartition& {
    auto it = contexts.find(bits);
    if (it != contexts.end()) return it->second;
    aod::StrippedPartition p = aod::StrippedPartition::WholeRelation(n);
    bool first = true;
    aod::AttributeSet(bits).ForEach([&](int attr) {
      p = first ? bases[static_cast<size_t>(attr)]
                : p.Product(bases[static_cast<size_t>(attr)], n, &scratch);
      first = false;
    });
    return contexts.emplace(bits, std::move(p)).first->second;
  };

  aod::ValidatorScratch vscratch;
  int64_t failures = 0;
  for (const DepRecord& r : records) {
    aod::ValidationRequest req;
    req.table = &table;
    req.context_partition = &context_of(r.context);
    req.kind = static_cast<aod::DependencyKind>(r.kind);
    req.target = static_cast<int>(r.a);
    req.pair = aod::AttributePair::Of(static_cast<int>(r.a),
                                      static_cast<int>(r.b), r.opposite != 0);
    req.algorithm = aod::ValidatorKind::kOptimal;
    req.epsilon = epsilon;
    req.afd_error = afd_error;
    req.table_rows = n;
    req.scratch = &vscratch;
    const aod::DependencyVerdict v = aod::ValidateDependency(req);
    uint64_t error_bits = 0;
    std::memcpy(&error_bits, &v.error, sizeof error_bits);
    if (v.valid && v.removal_size == r.removal_size &&
        error_bits == r.error_bits) {
      continue;
    }
    if (failures++ == 0 && first_failure != nullptr) {
      *first_failure = "re-validation of {" + r.ToString() + "} gave valid=" +
                       std::to_string(v.valid) +
                       " removal=" + std::to_string(v.removal_size);
    }
  }
  return failures;
}

}  // namespace perfbench
