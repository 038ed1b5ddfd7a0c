#include "prov/snapshot.h"

namespace provledger {
namespace prov {

Result<SnapshotReader> GraphSnapshot::OpenReader() const {
  SnapshotReader reader(epoch_, chain_height_);
  reader.graph_.Open(image_);
  return reader;
}

}  // namespace prov
}  // namespace provledger
