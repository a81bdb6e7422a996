#include "src/sampling/vertex_alias.h"

namespace fm {
void SameBandEdge() {}
}  // namespace fm
