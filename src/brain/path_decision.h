#pragma once

#include <vector>

#include "brain/pib.h"
#include "overlay/path.h"

// Path Decision module (paper §4.4): serves path lookups from consumer
// nodes. A lookup hashes the stream ID to the producer node via the
// SIB, then keys (producer, consumer) into the PIB; invalid (overload-
// marked) candidates are filtered; if nothing survives, the last-resort
// path is returned.
namespace livenet::brain {

class PathDecision {
 public:
  struct Lookup {
    std::vector<overlay::Path> paths;  ///< preference order (<= 3)
    bool stream_known = false;
    bool last_resort = false;
  };

  PathDecision(const Pib* pib, const Sib* sib) : pib_(pib), sib_(sib) {}

  Lookup get_path(media::StreamId stream, sim::NodeId consumer) const;

 private:
  const Pib* pib_;
  const Sib* sib_;
};

}  // namespace livenet::brain
