#include "trace.h"

namespace perfbench {

bool trace_linked() { return false; }
void trace_start() {}
void trace_stop() {}
void trace_write_json(std::ostream& os) { os << "null"; }

}  // namespace perfbench
