#include "src/util/timer.h"
unsigned long good() { return fm::NowNs(); }
