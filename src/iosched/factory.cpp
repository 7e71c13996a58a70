#include <algorithm>
#include <cctype>

#include "iosched/anticipatory.hpp"
#include "iosched/cfq.hpp"
#include "iosched/deadline.hpp"
#include "iosched/noop.hpp"
#include "iosched/pair.hpp"
#include "iosched/scheduler.hpp"

namespace iosim::iosched {

const char* to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kNoop: return "noop";
    case SchedulerKind::kDeadline: return "deadline";
    case SchedulerKind::kAnticipatory: return "anticipatory";
    case SchedulerKind::kCfq: return "cfq";
  }
  return "?";
}

char to_letter(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kNoop: return 'n';
    case SchedulerKind::kDeadline: return 'd';
    case SchedulerKind::kAnticipatory: return 'a';
    case SchedulerKind::kCfq: return 'c';
  }
  return '?';
}

std::optional<SchedulerKind> scheduler_from_string(const std::string& s) {
  std::string t;
  t.reserve(s.size());
  for (char c : s) t.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (t == "noop" || t == "noop(np)" || t == "np" || t == "n") return SchedulerKind::kNoop;
  if (t == "deadline" || t == "dl" || t == "d") return SchedulerKind::kDeadline;
  if (t == "anticipatory" || t == "as" || t == "a") return SchedulerKind::kAnticipatory;
  if (t == "cfq" || t == "c") return SchedulerKind::kCfq;
  return std::nullopt;
}

std::optional<SchedulerPair> SchedulerPair::from_letters(std::string_view code) {
  if (code.size() != 2) return std::nullopt;
  const auto vmm = scheduler_from_string(std::string(1, code[0]));
  const auto guest = scheduler_from_string(std::string(1, code[1]));
  if (!vmm || !guest) return std::nullopt;
  return SchedulerPair{*vmm, *guest};
}

std::unique_ptr<IoScheduler> make_scheduler(SchedulerKind kind, const SchedTunables& tun) {
  switch (kind) {
    case SchedulerKind::kNoop: return std::make_unique<NoopScheduler>();
    case SchedulerKind::kDeadline: return std::make_unique<DeadlineScheduler>(tun.deadline);
    case SchedulerKind::kAnticipatory: return std::make_unique<AnticipatoryScheduler>(tun.as);
    case SchedulerKind::kCfq: return std::make_unique<CfqScheduler>(tun.cfq);
  }
  return nullptr;
}

}  // namespace iosim::iosched
