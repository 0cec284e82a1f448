// perfbench_measure RUSAGE_PATH PROG [ARGS...]
//
// Runs PROG as its child, forwards SIGTERM and SIGINT to it, and when it
// ends writes "<user_us> <sys_us> <maxrss_kib>" to RUSAGE_PATH and exits
// with the child's code (128 + signal if it was killed).
//
// Why a launcher: Linux carries a process's peak RSS across exec, so a
// program forked straight from the benchmark's Python runner would report
// at least the runner's own footprint. A child of this small process starts
// from this process's footprint instead.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>

namespace {

volatile sig_atomic_t g_child = 0;

void Forward(int sig) {
  if (g_child > 0) kill(static_cast<pid_t>(g_child), sig);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_measure RUSAGE_PATH PROG [ARGS...]\n");
    return 64;
  }
  // Block the forwarded signals until the child's pid is known, so none is
  // lost between fork and the assignment.
  sigset_t forwarded, old;
  sigemptyset(&forwarded);
  sigaddset(&forwarded, SIGTERM);
  sigaddset(&forwarded, SIGINT);
  sigprocmask(SIG_BLOCK, &forwarded, &old);
  struct sigaction sa{};
  sa.sa_handler = Forward;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    signal(SIGTERM, SIG_DFL);
    signal(SIGINT, SIG_DFL);
    sigprocmask(SIG_SETMASK, &old, nullptr);
    execv(argv[2], argv + 2);
    std::perror(argv[2]);
    _exit(127);
  }
  g_child = pid;
  sigprocmask(SIG_SETMASK, &old, nullptr);

  int status = 0;
  struct rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::perror("wait4");
      return 1;
    }
  }
  std::FILE* f = std::fopen(argv[1], "w");
  if (f == nullptr ||
      std::fprintf(f, "%lld %lld %ld\n",
                   static_cast<long long>(ru.ru_utime.tv_sec) * 1000000 +
                       ru.ru_utime.tv_usec,
                   static_cast<long long>(ru.ru_stime.tv_sec) * 1000000 +
                       ru.ru_stime.tv_usec,
                   ru.ru_maxrss) < 0 ||
      std::fclose(f) != 0) {
    std::perror(argv[1]);
    return 1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}
