// Clang Thread Safety Analysis: annotated synchronization primitives.
//
// Every lock-holding type in the concurrent tree (thread pool, fault
// injector, serving runtime, observability layer) declares its mutexes
// through the wrappers below and its guarded state through the RFID_*
// macros, so a Clang build with -Werror=thread-safety *proves* the lock
// discipline at compile time: touching a RFID_GUARDED_BY member without
// holding its mutex, or calling a RFID_REQUIRES helper without the
// capability, is a build break — not a chaos-seed lottery ticket.
//
// Off Clang (gcc, MSVC) every macro expands to nothing and every wrapper
// is a zero-cost inline forwarder around the std primitive, so the
// annotations cost nothing at runtime anywhere and nothing at compile time
// outside the Clang CI lane (see PERF.md "Static analysis cost").
//
// Escape hatch: RFID_NO_THREAD_SAFETY_ANALYSIS disables the analysis for
// one function. Every use MUST carry a `// SAFETY:` comment directly above
// it justifying why the access pattern is safe despite being invisible to
// the analysis (typically: ownership handoff through a fork/join barrier).
// `tools/rfid_verify --fast` counts the escapes and fails CI on any
// without a justification.
//
// The attribute vocabulary mirrors Abseil's (capability/guarded_by/
// requires_capability/...); see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define RFID_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef RFID_THREAD_ANNOTATION
#define RFID_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Declares a type to be a capability (lockable). The string names the
/// capability kind in diagnostics ("mutex", "shared_mutex").
#define RFID_CAPABILITY(x) RFID_THREAD_ANNOTATION(capability(x))

/// Declares a RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define RFID_SCOPED_CAPABILITY RFID_THREAD_ANNOTATION(scoped_lockable)

/// Member may only be read or written while holding the given capability.
#define RFID_GUARDED_BY(x) RFID_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the pointee may only be touched while holding the
/// capability (the pointer itself is unguarded).
#define RFID_PT_GUARDED_BY(x) RFID_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held exclusively on entry (and does not
/// release it).
#define RFID_REQUIRES(...) \
  RFID_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function requires the capability held at least shared on entry.
#define RFID_REQUIRES_SHARED(...) \
  RFID_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and holds it on return.
#define RFID_ACQUIRE(...) \
  RFID_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared and holds it on return.
#define RFID_ACQUIRE_SHARED(...) \
  RFID_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases an exclusively held capability.
#define RFID_RELEASE(...) \
  RFID_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function releases a shared-held capability.
#define RFID_RELEASE_SHARED(...) \
  RFID_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function releases a capability held in either mode (scoped-locker
/// destructors, which cannot know how their constructor acquired).
#define RFID_RELEASE_GENERIC(...) \
  RFID_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// Function attempts the acquire; first argument is the success value.
#define RFID_TRY_ACQUIRE(...) \
  RFID_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function may not be called while holding the capability (deadlock
/// documentation, checked where the analysis can see the caller).
#define RFID_EXCLUDES(...) RFID_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define RFID_RETURN_CAPABILITY(x) RFID_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch — see the file comment: a `// SAFETY:` justification
/// directly above each use is mandatory and linted.
#define RFID_NO_THREAD_SAFETY_ANALYSIS \
  RFID_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace rfid {

/// std::mutex with the capability attribute. Prefer the scoped MutexLock;
/// Lock()/Unlock() exist for the rare split acquire.
class RFID_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RFID_ACQUIRE() { mu_.lock(); }
  void Unlock() RFID_RELEASE() { mu_.unlock(); }
  bool TryLock() RFID_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped exclusive lock on a Mutex (std::unique_lock underneath so CondVar
/// can wait on it).
class RFID_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RFID_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RFID_RELEASE() {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to MutexLock. The analysis treats the capability
/// as held across Wait() (it is, before and after); write wait loops as
/// explicit `while (!predicate) cv.Wait(lock);` so the predicate's guarded
/// reads stay inside the annotated function body (the analysis does not see
/// through predicate lambdas).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// std::shared_mutex with the capability attribute.
class RFID_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() RFID_ACQUIRE() { mu_.lock(); }
  void Unlock() RFID_RELEASE() { mu_.unlock(); }
  void LockShared() RFID_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RFID_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  friend class SharedMutexLock;
  friend class SharedReaderLock;
  std::shared_mutex mu_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class RFID_SCOPED_CAPABILITY SharedMutexLock {
 public:
  explicit SharedMutexLock(SharedMutex& mu) RFID_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~SharedMutexLock() RFID_RELEASE() {}
  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;

 private:
  std::unique_lock<std::shared_mutex> lock_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class RFID_SCOPED_CAPABILITY SharedReaderLock {
 public:
  explicit SharedReaderLock(SharedMutex& mu) RFID_ACQUIRE_SHARED(mu)
      : lock_(mu.mu_) {}
  ~SharedReaderLock() RFID_RELEASE_GENERIC() {}
  SharedReaderLock(const SharedReaderLock&) = delete;
  SharedReaderLock& operator=(const SharedReaderLock&) = delete;

 private:
  std::shared_lock<std::shared_mutex> lock_;
};

}  // namespace rfid
