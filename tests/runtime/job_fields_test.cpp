// Tests generated from the field lists of runtime/job.hpp: every listed
// field of every job kind reaches the cache key, and every field list
// names every data member of its struct (so no result-determining member
// can be left out of the key, the payload or the reply).
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "runtime/job.hpp"

namespace csdac::runtime {
namespace {

/// Calls f(dotted_name, member) for every scalar member of `s`, depth
/// first through nested field lists.
template <class T, class F>
void leaves(T& s, const std::string& path, F& f) {
  fields(s, [&](const char* name, auto& x) {
    const std::string p = path.empty() ? name : path + "." + name;
    if constexpr (HasFields<std::remove_cvref_t<decltype(x)>>) {
      leaves(x, p, f);
    } else {
      f(p, x);
    }
  });
}

/// A value different from `x`, whatever its type.
template <class T>
void perturb(T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    x = !x;
  } else if constexpr (std::is_enum_v<T>) {
    x = static_cast<T>(static_cast<int>(x) + 1);
  } else if constexpr (std::is_integral_v<T>) {
    x = static_cast<T>(x + 1);
  } else {
    x = x * 1.5 + 1.0;
  }
}

template <class J>
void expect_every_field_reaches_the_key() {
  const J base{};
  const mathx::HashKey128 base_key = job_key(Job(base));
  std::size_t n = 0;
  {
    J j = base;
    auto count = [&n](const std::string&, auto&) { ++n; };
    leaves(j, "", count);
  }
  ASSERT_GT(n, 0u) << J::kName;
  std::set<mathx::HashKey128> keys{base_key};
  for (std::size_t k = 0; k < n; ++k) {
    J j = base;
    std::string name;
    std::size_t i = 0;
    auto bump = [&](const std::string& p, auto& x) {
      if (i++ == k) {
        perturb(x);
        name = p;
      }
    };
    leaves(j, "", bump);
    const mathx::HashKey128 key = job_key(Job(j));
    EXPECT_NE(key, base_key) << J::kName << "." << name;
    EXPECT_TRUE(keys.insert(key).second)
        << J::kName << "." << name << " collides with another field";
  }
}

TEST(JobFields, EveryListedFieldOfEveryKindChangesTheKey) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (expect_every_field_reaches_the_key<std::variant_alternative_t<I, Job>>(),
     ...);
  }(std::make_index_sequence<std::variant_size_v<Job>>{});
}

// --- Field lists cover every data member -----------------------------------

/// Converts to anything: counts the initializers an aggregate accepts.
struct AnyInit {
  template <class T>
  operator T() const;
};

template <class T, class... A>
constexpr std::size_t member_count() {
  if constexpr (requires { T{A{}..., AnyInit{}}; }) {
    return member_count<T, A..., AnyInit>();
  } else {
    return sizeof...(A);
  }
}

template <class T>
std::size_t listed_count() {
  T t{};
  std::size_t n = 0;
  fields(t, [&n](const char*, auto&) { ++n; });
  return n;
}

template <class T>
void expect_lists_every_member(const char* what) {
  EXPECT_EQ(listed_count<T>(), member_count<T>()) << what;
}

TEST(JobFields, FieldListsNameEveryDataMember) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (expect_lists_every_member<std::variant_alternative_t<I, Job>>(
         std::variant_alternative_t<I, Job>::kName.data()),
     ...);
  }(std::make_index_sequence<std::variant_size_v<Job>>{});
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (expect_lists_every_member<std::variant_alternative_t<I, JobValue>>(
         "result"),
     ...);
  }(std::make_index_sequence<std::variant_size_v<JobValue>>{});
  expect_lists_every_member<core::DacSpec>("DacSpec");
  expect_lists_every_member<tech::MosTechParams>("MosTechParams");
  expect_lists_every_member<core::GridAxis>("GridAxis");
  expect_lists_every_member<dac::CalibrationOptions>("CalibrationOptions");
  expect_lists_every_member<dac::DynamicParams>("DynamicParams");
  expect_lists_every_member<arch::TimingParams>("TimingParams");
  expect_lists_every_member<core::DesignPoint>("DesignPoint");
  expect_lists_every_member<ArchPoint>("ArchPoint");
}

}  // namespace
}  // namespace csdac::runtime
