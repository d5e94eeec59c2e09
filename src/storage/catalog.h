// Catalog: the named-relation store a Database exposes to the optimizer and
// executor. Relation names are case-insensitive, as in SQL.

#ifndef HTQO_STORAGE_CATALOG_H_
#define HTQO_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "util/status.h"

namespace htqo {

class Catalog {
 public:
  Catalog() = default;

  // An overlay over `parent`: names Put here live only in this catalog and
  // shadow the parent's; every other name falls back to the parent, whose
  // relations are handed out by pointer, never copied. `parent` (nullptr
  // allowed) must outlive the overlay and not change while it is in use.
  // Nested queries keep their derived tables and views in overlays.
  explicit Catalog(const Catalog* parent) : parent_(parent) {}

  // Catalog is the owner of all base relations; moving it around would
  // invalidate pointers handed out by Find, so it is pinned.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Registers `relation` under `name`, replacing any previous relation with
  // that name (in an overlay: shadowing the parent's).
  void Put(const std::string& name, Relation relation);

  // Pointer to the relation registered under `name` here or, failing that,
  // in the parent chain; nullptr if none has it. The pointer stays valid
  // until the relation is replaced or its owning catalog is destroyed.
  const Relation* Find(const std::string& name) const;

  // As Find, but returns InvalidArgument when missing.
  Result<const Relation*> Get(const std::string& name) const;

  bool Contains(const std::string& name) const {
    return Find(name) != nullptr;
  }

  // Sorted lowercased names over this catalog and its parent chain, each
  // once.
  std::vector<std::string> Names() const;

  // Total number of tuples over all visible relations (shadowed parent
  // relations excluded); a proxy for database size.
  std::size_t TotalRows() const;

 private:
  const Catalog* parent_ = nullptr;
  // unique_ptr keeps Relation addresses stable across map rehash/growth.
  std::map<std::string, std::unique_ptr<Relation>> relations_;
};

}  // namespace htqo

#endif  // HTQO_STORAGE_CATALOG_H_
