#include "wire/admin_body.h"

namespace enclaves::wire {

std::string describe(const AdminBody& body) {
  return std::visit(
      [](const auto& b) -> std::string {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, NewGroupKey>) {
          return "NewGroupKey(epoch=" + std::to_string(b.epoch) + ")";
        } else if constexpr (std::is_same_v<T, MemberJoined>) {
          return "MemberJoined(" + b.member + ")";
        } else if constexpr (std::is_same_v<T, MemberLeft>) {
          return "MemberLeft(" + b.member + ")";
        } else if constexpr (std::is_same_v<T, MemberList>) {
          std::string s = "MemberList(";
          for (std::size_t i = 0; i < b.members.size(); ++i) {
            if (i) s += ",";
            s += b.members[i];
          }
          return s + ")";
        } else if constexpr (std::is_same_v<T, Notice>) {
          return "Notice(" + b.text + ")";
        } else if constexpr (std::is_same_v<T, KeyTreeAssign>) {
          return "KeyTreeAssign(leaf=" + std::to_string(b.leaf) + ")";
        } else {
          return "Expelled(" + b.reason + ")";
        }
      },
      body);
}

const char* admin_kind_name(const AdminBody& body) {
  return std::visit(
      [](const auto& b) -> const char* {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, NewGroupKey>) {
          return "new_group_key";
        } else if constexpr (std::is_same_v<T, MemberJoined>) {
          return "member_joined";
        } else if constexpr (std::is_same_v<T, MemberLeft>) {
          return "member_left";
        } else if constexpr (std::is_same_v<T, MemberList>) {
          return "member_list";
        } else if constexpr (std::is_same_v<T, Notice>) {
          return "notice";
        } else if constexpr (std::is_same_v<T, KeyTreeAssign>) {
          return "keytree_assign";
        } else {
          return "expelled";
        }
      },
      body);
}

}  // namespace enclaves::wire
