// Seeded CI fixture (never compiled): the online health monitor seeing the
// offline trace auditor, which only tools/ and bench/ may drive.
#include "analysis/trace_event.h"
