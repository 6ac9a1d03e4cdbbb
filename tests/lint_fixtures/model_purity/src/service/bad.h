// Seeded CI fixture (never compiled): a service header seeing the
// measurement layer. Declarations hold a forward-declared perf::Profiler*;
// only driver .cpp files include perf/.
#include "perf/profiler.h"
