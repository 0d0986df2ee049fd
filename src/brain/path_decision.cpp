#include "brain/path_decision.h"

namespace livenet::brain {

PathDecision::Lookup PathDecision::get_path(media::StreamId stream,
                                            sim::NodeId consumer) const {
  Lookup out;
  const sim::NodeId producer = sib_->producer_of(stream);
  if (producer == sim::kNoNode) return out;  // unknown stream
  out.stream_known = true;

  if (producer == consumer) {
    // 0-length path: the consumer is the producer.
    out.paths.push_back(overlay::Path{consumer});
    return out;
  }

  out.paths = pib_->valid_paths(producer, consumer);
  if (out.paths.empty()) {
    overlay::Path lr = pib_->last_resort(producer, consumer);
    if (!lr.empty()) {
      out.paths.push_back(std::move(lr));
      out.last_resort = true;
    }
  }
  return out;
}

}  // namespace livenet::brain
