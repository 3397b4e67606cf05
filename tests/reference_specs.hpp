#pragma once

#include "c3/interface_spec.hpp"

namespace sg::reference {

/// Hand-built InterfaceSpecs for the six system services — exactly the
/// models the SuperGlue IDL files in idl/*.sgidl describe. They are the
/// test oracle only: the System runs the sgidlc-generated specs
/// (idl/gen_api.hpp), and idl_test checks that both the runtime-compiled and
/// the generated specs are equivalent to these independent references.
/// Each returned spec is finalized and passes InterfaceSpec::validate().

c3::InterfaceSpec sched_spec();
c3::InterfaceSpec lock_spec();
c3::InterfaceSpec mman_spec();
c3::InterfaceSpec ramfs_spec();
c3::InterfaceSpec evt_spec();
c3::InterfaceSpec tmr_spec();

}  // namespace sg::reference
