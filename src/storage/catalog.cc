#include "storage/catalog.h"

#include <algorithm>
#include <iterator>

#include "util/strings.h"

namespace htqo {

void Catalog::Put(const std::string& name, Relation relation) {
  relations_[ToLower(name)] =
      std::make_unique<Relation>(std::move(relation));
}

const Relation* Catalog::Find(const std::string& name) const {
  auto it = relations_.find(ToLower(name));
  if (it != relations_.end()) return it->second.get();
  return parent_ == nullptr ? nullptr : parent_->Find(name);
}

Result<const Relation*> Catalog::Get(const std::string& name) const {
  const Relation* r = Find(name);
  if (r == nullptr) {
    return Status::InvalidArgument("unknown relation: " + name);
  }
  return r;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> local;
  local.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) local.push_back(name);
  if (parent_ == nullptr) return local;
  const std::vector<std::string> inherited = parent_->Names();
  std::vector<std::string> out;
  out.reserve(local.size() + inherited.size());
  std::set_union(local.begin(), local.end(), inherited.begin(),
                 inherited.end(), std::back_inserter(out));
  return out;
}

std::size_t Catalog::TotalRows() const {
  std::size_t n = 0;
  for (const std::string& name : Names()) n += Find(name)->NumRows();
  return n;
}

}  // namespace htqo
