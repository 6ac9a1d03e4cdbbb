// Seeded CI fixture (never compiled): a protocol header reaching the
// engine. Stations see the channel only through the station headers
// (radio/station.h, radio/message.h, ...); RadioNetwork is apparatus.
// Checked against the repo's own .lint-layers by the "negative gates"
// step of the CI lint job.
#include "radio/network.h"
