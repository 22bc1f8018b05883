// Roster — a member's view of the group: a sorted list of distinct member
// ids, shared copy-on-write with the ViewChanged events that publish it.
//
// A join or leave notice costs one binary search plus one insert or erase.
// The list is changed in place while the roster is its only owner; a
// handler that kept an earlier snapshot keeps that snapshot unchanged, and
// the next change copies the list first (EXPERIMENTS.md E18). Both
// core::Member and legacy::LegacyMember keep their view in one.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace enclaves::core {

class Roster {
 public:
  using Snapshot = std::shared_ptr<const std::vector<std::string>>;

  /// Adds `id`; a duplicate changes nothing.
  void insert(const std::string& id);

  /// Removes `id`; an absent id changes nothing.
  void erase(const std::string& id);

  /// Replaces the roster with `ids`, sorted and without duplicates.
  void assign(std::vector<std::string> ids);

  void clear();

  const std::vector<std::string>& members() const { return *list_; }

  /// The current list, shared: it stays as it is for as long as the caller
  /// holds it, whatever the roster does next.
  Snapshot snapshot() const { return list_; }

 private:
  /// The list, made unshared first if a snapshot of it is still held.
  std::vector<std::string>& own();

  std::shared_ptr<std::vector<std::string>> list_ =
      std::make_shared<std::vector<std::string>>();
};

}  // namespace enclaves::core
