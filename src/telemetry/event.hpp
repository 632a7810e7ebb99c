// The library's one instrumentation call. A site names its catalogue
// Site and hands over its fields; telemetry::event fans them out to
// every sink the site's catalogue entries and the current levels admit:
// the metrics registry, the JSON-lines log, the flight-recorder ring and
// trace instants. Sites do no gating of their own.
//
//   telemetry::event(telemetry::Site::kFallback,
//                    {{"stage", "exec"}, {"to", "naive"},
//                     {"code", to_string(e.code())}, {"cause", e.what()}});
//
// A telemetry::Stage replaces the event call where a site also times a
// region: its emit() fires the site's event and hands the same fields to
// the stage's trace span as args.
//
// Fields are numbers, text views, or values with a to_string() member
// (Shape, Permutation, Status, ...) that only a sink taking the field
// formats. They must outlive the call, which temporaries in the call
// expression do. Json is built only inside the log and trace sinks; the
// flight ring gets the fields formatted into its fixed detail buffer, so
// an event whose sinks are all off allocates nothing, and one that
// reaches only the counters and the ring allocates nothing unless it
// carries a to_string() field.
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "telemetry/catalogue.hpp"
#include "telemetry/json.hpp"

namespace ttlg::telemetry {

struct Field {
  enum class Type : std::uint8_t {
    kAbsent, kInt, kReal, kBool, kText, kFormatted
  };

  template <std::integral T>
  Field(const char* k, T v)
      : key(k),
        type(std::same_as<T, bool> ? Type::kBool : Type::kInt),
        i(static_cast<std::int64_t>(v)) {}
  template <std::floating_point T>
  Field(const char* k, T v) : key(k), type(Type::kReal), d(v) {}
  Field(const char* k, std::string_view v)
      : key(k), type(Type::kText), text(v) {}
  Field(const char* k, const char* v) : Field(k, std::string_view(v)) {}
  template <class T>
    requires requires(const T& v) { std::string(v.to_string()); }
  Field(const char* k, const T& v)
      : key(k),
        type(Type::kFormatted),
        object(&v),
        format([](const void* p) {
          return std::string(static_cast<const T*>(p)->to_string());
        }) {}
  /// An empty optional is an absent field: no sink sees it.
  template <class T>
  Field(const char* k, const std::optional<T>& v) : key(k) {
    if (v) *this = Field(k, *v);
  }

  double number() const { return type == Type::kReal ? d : double(i); }
  /// The text of a kText or kFormatted field.
  std::string str() const {
    return type == Type::kFormatted ? format(object) : std::string(text);
  }
  Json to_json() const;

  const char* key;
  Type type = Type::kAbsent;
  std::int64_t i = 0;
  double d = 0;
  std::string_view text;
  const void* object = nullptr;
  std::string (*format)(const void*) = nullptr;
};

using Fields = std::initializer_list<Field>;

void event(Site site, Fields fields = {});

/// Scoped stage: a trace span ('X') from construction to destruction,
/// named by the site's kStage entry, while the trace level is on.
class Stage {
 public:
  explicit Stage(Site site);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Fire the site's event now; the fields also become the span's args.
  void emit(Fields fields);

 private:
  Site site_;
  const Entry* span_ = nullptr;  ///< non-null while tracing
  double start_us_ = 0;
  int depth_ = 0;
  std::string name_;
  Json args_;
};

}  // namespace ttlg::telemetry
