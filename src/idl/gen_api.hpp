#pragma once

#include "c3/interface_spec.hpp"

/// Declarations for the spec-builder functions sgidlc generates at build
/// time from idl/*.sgidl (see src/idl/CMakeLists.txt). Each returns the
/// compiled-and-validated InterfaceSpec for one system service. These are
/// the specs components::System registers; tests assert equivalence with
/// both the runtime-compiled specs and the hand-built reference specs.
namespace sg::gen {

sg::c3::InterfaceSpec make_sched_spec();
sg::c3::InterfaceSpec make_lock_spec();
sg::c3::InterfaceSpec make_mman_spec();
sg::c3::InterfaceSpec make_ramfs_spec();
sg::c3::InterfaceSpec make_evt_spec();
sg::c3::InterfaceSpec make_tmr_spec();

}  // namespace sg::gen
