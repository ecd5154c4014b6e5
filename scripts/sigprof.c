/*
 * A SIGPROF stack sampler, for hosts without `perf`. Built and used by
 * scripts/host-profile.sh:
 *
 *   gcc -shared -fPIC -O2 -o libsigprof.so scripts/sigprof.c
 *   HOST_PROFILE_OUT=prof LD_PRELOAD=./libsigprof.so <program> ...
 *
 * Every 1/HOST_PROFILE_HZ seconds of process CPU time (default 997 Hz;
 * ITIMER_PROF counts every thread), the thread that is running records
 * its stack. At exit the library writes prof.stacks — one sample per
 * line, hex addresses, the interrupted instruction first and return
 * addresses after it — and prof.maps, a copy of /proc/self/maps to place
 * those addresses in their files. Children of the profiled process run
 * unprofiled: the constructor takes LD_PRELOAD out of the environment.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 64
#define MAX_SAMPLES 65536

struct sample {
    int depth;
    void *pc[DEPTH];
};

static struct sample *samples;
static atomic_long taken;
static char out[4096];
static int hz;

static void *interrupted_pc(void *uc) {
    mcontext_t *m = &((ucontext_t *)uc)->uc_mcontext;
#if defined(__x86_64__)
    return (void *)m->gregs[REG_RIP];
#elif defined(__aarch64__)
    return (void *)m->pc;
#else
    (void)m;
    return NULL;
#endif
}

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig;
    (void)si;
    long i = atomic_fetch_add(&taken, 1);
    if (i >= MAX_SAMPLES)
        return;
    int saved = errno;
    void *raw[DEPTH + 3];
    int n = backtrace(raw, DEPTH + 3);
    /* Drop this handler's frames and the signal trampoline: the stack
     * starts at the interrupted instruction. */
    void *pc = interrupted_pc(uc);
    int skip = 0;
    while (skip < n && raw[skip] != pc)
        skip++;
    struct sample *s = &samples[i];
    if (skip == n) {
        s->pc[0] = pc;
        s->depth = 1;
    } else {
        s->depth = n - skip > DEPTH ? DEPTH : n - skip;
        memcpy(s->pc, raw + skip, s->depth * sizeof(void *));
    }
    errno = saved;
}

__attribute__((constructor)) static void start(void) {
    const char *o = getenv("HOST_PROFILE_OUT");
    if (!o)
        return;
    snprintf(out, sizeof out, "%s", o);
    const char *h = getenv("HOST_PROFILE_HZ");
    hz = h ? atoi(h) : 997;
    if (hz <= 0 || hz > 10000)
        hz = 997;
    unsetenv("LD_PRELOAD");
    unsetenv("HOST_PROFILE_OUT");
    samples = mmap(NULL, sizeof(struct sample) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) {
        samples = NULL;
        return;
    }
    /* The first backtrace loads the unwinder; never do that in the
     * handler. */
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void finish(void) {
    if (!samples)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    char path[sizeof out + 16];
    snprintf(path, sizeof path, "%s.stacks", out);
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    long n = atomic_load(&taken);
    long kept = n < MAX_SAMPLES ? n : MAX_SAMPLES;
    fprintf(f, "# hz %d samples %ld dropped %ld\n", hz, kept, n - kept);
    for (long i = 0; i < kept; i++) {
        for (int j = 0; j < samples[i].depth; j++)
            fprintf(f, j ? " %lx" : "%lx", (unsigned long)samples[i].pc[j]);
        fputc('\n', f);
    }
    fclose(f);
    snprintf(path, sizeof path, "%s.maps", out);
    FILE *in = fopen("/proc/self/maps", "r");
    FILE *maps = fopen(path, "w");
    if (in && maps) {
        char buf[4096];
        size_t got;
        while ((got = fread(buf, 1, sizeof buf, in)) > 0)
            fwrite(buf, 1, got, maps);
    }
    if (in)
        fclose(in);
    if (maps)
        fclose(maps);
}
