#include "timeserver/archive.h"

namespace tre::server {

template class BasicUpdateArchive<core::Tre512Backend>;

}  // namespace tre::server
