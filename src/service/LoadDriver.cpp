//===- service/LoadDriver.cpp - Sustained-load service driver -------------===//

#include "service/LoadDriver.h"

#include "support/Contracts.h"

#include <utility>
#include <vector>

using namespace ccsim;
using namespace ccsim::service;

LoadDriverReport
ccsim::service::runSustainedLoad(const LoadDriverConfig &Config) {
  CCSIM_REQUIRE(Config.TotalJobs >= 1, "sustained load needs jobs");

  SimServiceConfig SC;
  SC.Threads = Config.Workers;
  SC.QueueCapacity = Config.QueueCapacity;
  SC.Pressure = Config.Pressure;
  SC.Telemetry = Config.Telemetry;

  LoadDriverReport Report;
  std::vector<JobHandle> Handles;
  Handles.reserve(Config.TotalJobs);
  {
    SimService Service(SC);
    for (uint64_t I = 0; I < Config.TotalJobs; ++I) {
      ReplayJob J;
      J.TraceData = Config.TraceData;
      J.Spec = Config.Spec;
      J.GuestThreads = Config.GuestThreads;
      J.Config.PressureFactor = Config.PressureFactor;
      J.Config.Audit = Config.Audit;
      Handles.push_back(Service.submit(
          Job(std::move(J),
              JobOptions{}.withLabel("load-" + std::to_string(I + 1)))));
    }
    Report.Submitted = Handles.size();
    Service.drain();
  }

  for (const JobHandle &H : Handles) {
    const JobOutcome &Out = H.wait();
    switch (Out.Status) {
    case JobStatus::Done:
      ++Report.Done;
      for (const SimResult &R : Out.Replay)
        Report.AccessesReplayed += R.Stats.Accesses;
      break;
    case JobStatus::Failed:
      ++Report.Failed;
      break;
    case JobStatus::Cancelled:
      ++Report.Cancelled;
      break;
    case JobStatus::TimedOut:
      ++Report.TimedOut;
      break;
    case JobStatus::Rejected:
      ++Report.Rejected;
      break;
    case JobStatus::Shed:
      ++Report.Shed;
      break;
    case JobStatus::Queued:
    case JobStatus::Running:
      // drain() completed every admitted job; a non-terminal state here
      // is an accounting bug the caller must see.
      break;
    }
  }
  Report.Accounted = Report.Done + Report.Failed + Report.Cancelled +
                         Report.TimedOut + Report.Rejected + Report.Shed ==
                     Report.Submitted;
  return Report;
}
