// Access-control policies for group admission.
//
// Section 2.2: "L can either accept or deny access to A depending on the
// application security policy." In the improved protocol there is no
// pre-authentication denial message (a forged one was the Section 2.3 DoS),
// so denial is SILENT: the leader simply never answers the AuthInitReq. The
// requester cannot be told apart from one whose request was lost — which is
// exactly the property that makes the denial unforgeable.
//
// Policies compose: Composite denies if any component denies.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace enclaves::core {

struct AccessDecision {
  bool allow = true;
  std::string reason;  // for the security ledger; never sent on the wire

  static AccessDecision yes() { return {true, {}}; }
  static AccessDecision no(std::string reason) {
    return {false, std::move(reason)};
  }
};

class AccessPolicy {
 public:
  virtual ~AccessPolicy() = default;

  /// Consulted when a registered member's AuthInitReq authenticates.
  /// `current_size` is the number of members already in session.
  virtual AccessDecision may_join(const std::string& member_id,
                                  std::size_t current_size) const = 0;
};

/// Admits every registered member (the default).
class OpenPolicy final : public AccessPolicy {
 public:
  AccessDecision may_join(const std::string&, std::size_t) const override {
    return AccessDecision::yes();
  }
};

/// Admits only listed members.
class AllowlistPolicy final : public AccessPolicy {
 public:
  explicit AllowlistPolicy(std::set<std::string> allowed)
      : allowed_(std::move(allowed)) {}

  AccessDecision may_join(const std::string& id,
                          std::size_t) const override {
    if (allowed_.count(id)) return AccessDecision::yes();
    return AccessDecision::no("not on allowlist");
  }

 private:
  std::set<std::string> allowed_;
};

/// Rejects listed members; mutable so members can be banned at runtime
/// (e.g. after an expulsion).
class DenylistPolicy final : public AccessPolicy {
 public:
  DenylistPolicy() = default;
  explicit DenylistPolicy(std::set<std::string> denied)
      : denied_(std::move(denied)) {}

  void ban(const std::string& id) { denied_.insert(id); }
  void unban(const std::string& id) { denied_.erase(id); }
  bool is_banned(const std::string& id) const { return denied_.count(id); }

  AccessDecision may_join(const std::string& id,
                          std::size_t) const override {
    if (denied_.count(id)) return AccessDecision::no("banned");
    return AccessDecision::yes();
  }

 private:
  std::set<std::string> denied_;
};

/// Caps the group size.
class MaxSizePolicy final : public AccessPolicy {
 public:
  explicit MaxSizePolicy(std::size_t max_members) : max_(max_members) {}

  AccessDecision may_join(const std::string&,
                          std::size_t current_size) const override {
    if (current_size < max_) return AccessDecision::yes();
    return AccessDecision::no("group full");
  }

 private:
  std::size_t max_;
};

/// All component policies must allow; the first denial wins.
class CompositePolicy final : public AccessPolicy {
 public:
  void add(std::shared_ptr<const AccessPolicy> policy) {
    parts_.push_back(std::move(policy));
  }

  AccessDecision may_join(const std::string& id,
                          std::size_t current_size) const override {
    for (const auto& p : parts_) {
      auto d = p->may_join(id, current_size);
      if (!d.allow) return d;
    }
    return AccessDecision::yes();
  }

 private:
  std::vector<std::shared_ptr<const AccessPolicy>> parts_;
};

}  // namespace enclaves::core
