// spawn: run a command to completion and report what it cost.
//
//   spawn <report-path> <program> [args...]
//
// Writes "<wall_s> <cpu_s> <maxrss_kib> <exit_code>" to <report-path>; the
// command's own stdout and stderr pass through. Wall time runs from fork to
// wait4, CPU time and peak RSS come from the child's rusage.
//
// The benchmark runner spawns through this instead of directly because
// Linux folds the peak RSS of the address space a child leaves at exec into
// the child's ru_maxrss: a command started from the Python runner never
// reads below the runner's ~20 MiB. Forked from this small process, the
// floor is well under 1 MiB.
#include <stdio.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static double seconds(struct timespec t) { return t.tv_sec + t.tv_nsec / 1e9; }
static double cpu_seconds(struct timeval t) { return t.tv_sec + t.tv_usec / 1e6; }

int main(int argc, char** argv) {
  if (argc < 3) {
    fprintf(stderr, "usage: spawn <report-path> <program> [args...]\n");
    return 2;
  }
  struct timespec start, end;
  clock_gettime(CLOCK_MONOTONIC, &start);
  const pid_t pid = fork();
  if (pid < 0) {
    perror("fork");
    return 2;
  }
  if (pid == 0) {
    execv(argv[2], argv + 2);
    perror(argv[2]);
    _exit(127);
  }
  int status = 0;
  struct rusage usage;
  if (wait4(pid, &status, 0, &usage) < 0) {
    perror("wait4");
    return 2;
  }
  clock_gettime(CLOCK_MONOTONIC, &end);
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  FILE* out = fopen(argv[1], "w");
  if (out == NULL) {
    perror(argv[1]);
    return 2;
  }
  fprintf(out, "%.9f %.6f %ld %d\n", seconds(end) - seconds(start),
          cpu_seconds(usage.ru_utime) + cpu_seconds(usage.ru_stime),
          usage.ru_maxrss, code);
  return fclose(out) == 0 ? 0 : 2;
}
