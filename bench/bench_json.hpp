// Uniform machine-readable bench output.
//
// Every bench binary prints, as its LAST stdout line, one JSON record:
//   {"schema":"securecloud.bench.v1","bench":"<name>","threads":N,
//    "obs":<securecloud.obs.v1 registry snapshot>}
// CI's bench smoke step greps for the schema tag and validates the
// record's shape, so keep the field set stable (additions are fine).
#pragma once

#include <cstdio>
#include <string>

#include "obs/registry.hpp"

namespace securecloud::benchutil {

/// `extra` adds top-level fields, written as `"name":value` pairs joined by
/// commas (empty for none); bench_compare.py gates every `*_per_sec` one.
inline void emit_bench_json(const std::string& bench, std::size_t threads,
                            const obs::Registry& registry, const std::string& extra = "") {
  std::printf(
      "{\"schema\":\"securecloud.bench.v1\",\"bench\":\"%s\",\"threads\":%zu,"
      "%s%s\"obs\":%s}\n",
      bench.c_str(), threads, extra.c_str(), extra.empty() ? "" : ",",
      registry.to_json().c_str());
}

}  // namespace securecloud::benchutil
