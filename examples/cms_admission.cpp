// CMS-style admission walkthrough: the paper motivates the system with
// CERN's CMS/ATLAS workloads submitted to clusters like the UNL Research
// Computing Facility. This example hand-crafts a burst of large analysis
// jobs arriving while the cluster is busy, and shows - task by task - what
// the Figure-2 schedulability test decides and *why*:
//
//  * the heterogeneous-model construction (per-node Cps_i),
//  * the DLT partition (alpha_i) and the completion estimate r_n + E_hat,
//  * the Theorem-4 per-node completion bounds,
//  * accept/reject decisions with infeasibility reasons.
#include <cstdio>

#include "dlt/het_model.hpp"
#include "dlt/nmin.hpp"
#include "sched/admission.hpp"
#include "sched/registry.hpp"

int main() {
  using namespace rtdls;

  // RCF-like cluster: 16 worker nodes, transmit 1 tu per data unit over the
  // switch, process 100 tu per unit.
  const cluster::ClusterParams cluster{.node_count = 16, .cms = 1.0, .cps = 100.0};

  // The cluster is mid-shift: some nodes are already committed to earlier
  // reconstruction passes and free at different times (the IIT scenario).
  std::vector<cluster::Time> free_times = {0,    0,    500,  500,  900,  900,
                                           1300, 1300, 2000, 2000, 2600, 2600,
                                           3400, 3400, 4200, 4200};

  // A burst of CMS-style jobs: (arrival, data size, relative deadline).
  struct Job {
    const char* label;
    workload::Task task;
  };
  std::vector<Job> jobs;
  auto add_job = [&jobs](const char* label, double arrival, double sigma, double deadline,
                         std::size_t id) {
    Job job;
    job.label = label;
    job.task.id = id;
    job.task.spec = {arrival, sigma, deadline};
    jobs.push_back(job);
  };
  add_job("trigger-skim      ", 0.0, 40.0, 2500.0, 0);
  add_job("full-reconstruction", 0.0, 220.0, 9000.0, 1);
  add_job("monte-carlo-batch ", 0.0, 160.0, 4000.0, 2);
  add_job("urgent-calibration", 0.0, 90.0, 1200.0, 3);  // deliberately tight

  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sched::AdmissionController controller(algorithm.policy, algorithm.rule.get());

  std::puts("=== CMS-style admission under EDF-DLT (IITs utilized) ===\n");
  std::vector<const workload::Task*> admitted;
  for (const Job& job : jobs) {
    std::printf("job %s sigma=%5.0f D=%6.0f : ", job.label, job.task.sigma(),
                job.task.rel_deadline());
    const sched::AdmissionOutcome outcome =
        controller.test(&job.task, admitted, cluster, free_times, 0.0);
    if (!outcome.accepted) {
      std::printf("REJECTED (%s, blocking task %llu)\n",
                  dlt::infeasibility_name(outcome.reason),
                  static_cast<unsigned long long>(outcome.blocking_task));
      continue;
    }
    admitted.push_back(&job.task);
    // Find this job's plan in the accepted temp schedule.
    for (const sched::ScheduledTask& scheduled : outcome.schedule) {
      if (scheduled.task->id != job.task.id) continue;
      std::printf("ACCEPTED on %zu nodes, est completion %.1f (deadline %.1f)\n",
                  scheduled.plan->nodes, scheduled.plan->est_completion,
                  job.task.abs_deadline());
    }
  }

  // Zoom into the heterogeneous model of one job to show the construction.
  std::puts("\n=== Heterogeneous-model detail: full-reconstruction, 6 nodes ===");
  std::vector<cluster::Time> staggered(free_times.begin(), free_times.begin() + 6);
  const dlt::HetPartition part = dlt::build_het_partition(cluster, 220.0, staggered);
  std::printf("%-6s %-10s %-12s %-10s %-14s\n", "node", "avail r_i", "Cps_i (Eq.1)",
              "alpha_i", "Thm4 bound");
  const std::vector<cluster::Time> bounds =
      dlt::theorem4_completion_bounds(cluster, 220.0, part);
  for (std::size_t i = 0; i < part.nodes(); ++i) {
    std::printf("P%-5zu %-10.0f %-12.3f %-10.4f %-14.2f\n", i + 1, part.available[i],
                part.cps_i[i], part.alpha[i], bounds[i]);
  }
  std::printf("E (no IIT) = %.2f, E_hat = %.2f (Eq.9: E_hat <= E), estimate = %.2f\n",
              part.homogeneous_time, part.execution_time, part.estimated_completion());
  std::puts("every Thm4 bound above is <= the estimate: the admission guarantee is sound");
  return 0;
}
