#include "core/roster.h"

#include <algorithm>
#include <atomic>

namespace enclaves::core {

std::vector<std::string>& Roster::own() {
  if (list_.use_count() > 1) {
    list_ = std::make_shared<std::vector<std::string>>(*list_);
  } else {
    // use_count() is a relaxed read. The acquire fence orders the writes
    // that follow after the reads of a thread that just dropped the last
    // other snapshot (its release is in the shared_ptr's decrement).
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *list_;
}

void Roster::insert(const std::string& id) {
  auto at = std::lower_bound(list_->begin(), list_->end(), id);
  if (at != list_->end() && *at == id) return;
  const auto pos = at - list_->begin();
  auto& list = own();
  list.insert(list.begin() + pos, id);
}

void Roster::erase(const std::string& id) {
  auto at = std::lower_bound(list_->begin(), list_->end(), id);
  if (at == list_->end() || *at != id) return;
  const auto pos = at - list_->begin();
  auto& list = own();
  list.erase(list.begin() + pos);
}

void Roster::assign(std::vector<std::string> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  list_ = std::make_shared<std::vector<std::string>>(std::move(ids));
}

void Roster::clear() {
  if (!list_->empty()) list_ = std::make_shared<std::vector<std::string>>();
}

}  // namespace enclaves::core
