#include "uncertain/pdf.h"

namespace uclust::uncertain {

Pdf::~Pdf() = default;

}  // namespace uclust::uncertain
