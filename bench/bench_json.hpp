// Minimal JSON writer for the design service and its load generator
// (tools/csdac_serve, tools/csdac_loadgen).
// Explicit begin/end calls, insertion-ordered keys, no DOM: just enough to
// emit the csdac-bench/csdac-serve schemas documented in EXPERIMENTS.md.
// String escaping is the shared obs escaper; numbers are written with
// %.17g so a round-trip through a double is lossless; non-finite doubles
// become null.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_escape.hpp"

namespace csdac::bench {

class JsonWriter {
 public:
  JsonWriter& begin_object() {
    comma();
    out_ += '{';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& end_object() {
    out_ += '}';
    first_.pop_back();
    return *this;
  }
  JsonWriter& begin_array() {
    comma();
    out_ += '[';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& end_array() {
    out_ += ']';
    first_.pop_back();
    return *this;
  }

  JsonWriter& key(std::string_view k) {
    comma();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    comma();
    quote(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double v) {
    comma();
    char buf[40];
    if (v != v || v > 1.7e308 || v < -1.7e308) {
      out_ += "null";
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }

  /// Splices pre-serialized JSON (e.g. a MetricsSnapshot::to_json() blob)
  /// as the next value, comma-aware like any other value. The caller is
  /// responsible for `json` being well-formed.
  JsonWriter& raw(std::string_view json) {
    comma();
    out_ += json;
    return *this;
  }

  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (first_.back()) {
        first_.back() = false;
      } else {
        out_ += ',';
      }
    }
  }

  void quote(std::string_view s) {
    out_ += '"';
    obs::append_json_escaped(out_, s);
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace csdac::bench
