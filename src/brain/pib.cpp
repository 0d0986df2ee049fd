#include "brain/pib.h"

namespace livenet::brain {

void Pib::set_paths(sim::NodeId src, sim::NodeId dst,
                    std::vector<overlay::Path> paths) {
  paths_[pair_key(src, dst)] = std::move(paths);
}

void Pib::set_last_resort(sim::NodeId src, sim::NodeId dst,
                          overlay::Path path) {
  fallbacks_[pair_key(src, dst)] = std::move(path);
}

const std::vector<overlay::Path>* Pib::find(sim::NodeId src,
                                            sim::NodeId dst) const {
  const auto it = paths_.find(pair_key(src, dst));
  return it != paths_.end() ? &it->second : nullptr;
}

bool Pib::is_invalid(const overlay::Path& p) const {
  for (std::size_t i = 0; i < p.size(); ++i) {
    const bool endpoint = (i == 0 || i + 1 == p.size());
    if (!endpoint && hot_nodes_.count(p[i]) != 0) return true;
    if (i + 1 < p.size() &&
        hot_links_.count(link_key(p[i], p[i + 1])) != 0) {
      return true;
    }
  }
  return false;
}

std::vector<overlay::Path> Pib::valid_paths(sim::NodeId src,
                                            sim::NodeId dst) const {
  std::vector<overlay::Path> out;
  const auto* all = find(src, dst);
  if (all == nullptr) return out;
  for (const auto& p : *all) {
    if (!is_invalid(p)) out.push_back(p);
  }
  return out;
}

std::vector<std::pair<sim::NodeId, sim::NodeId>> Pib::pairs() const {
  std::vector<std::pair<sim::NodeId, sim::NodeId>> out;
  out.reserve(paths_.size());
  for (const auto& [key, v] : paths_) {
    out.emplace_back(static_cast<sim::NodeId>(key >> 32),
                     static_cast<sim::NodeId>(key & 0xFFFFFFFFu));
  }
  return out;
}

overlay::Path Pib::last_resort(sim::NodeId src, sim::NodeId dst) const {
  const auto it = fallbacks_.find(pair_key(src, dst));
  return it != fallbacks_.end() ? it->second : overlay::Path{};
}

const overlay::Path* Pib::find_last_resort(sim::NodeId src,
                                           sim::NodeId dst) const {
  const auto it = fallbacks_.find(pair_key(src, dst));
  return it != fallbacks_.end() ? &it->second : nullptr;
}

void Pib::swap_routes(Pib* other) {
  paths_.swap(other->paths_);
  fallbacks_.swap(other->fallbacks_);
}

}  // namespace livenet::brain
