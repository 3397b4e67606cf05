#pragma once

#include <atomic>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "kernel/component.hpp"
#include "kernel/kernel.hpp"

namespace sg::kernel {

/// The booter component (§II-C): holds a pristine boot image for every
/// component and micro-reboots a failed component by memcpy-ing the image
/// back, resetting component state, and issuing the re-initialization upcall
/// (steps 2–4 of the recovery sequence). The kernel vectors every fail-stop
/// fault here via set_micro_reboot.
class Booter final : public Component {
 public:
  explicit Booter(Kernel& kernel);

  /// Captures the boot image of `comp` on first registration. Components
  /// register automatically on first reboot; call explicitly to pay the
  /// allocation up-front (embedded systems preallocate). The pristine image
  /// is WRITE-ONCE: re-capturing an already-registered component is a no-op,
  /// because the pristine image is the component's *initial* state and must
  /// survive every micro-reboot — a silent re-capture after the component has
  /// run would bake corrupted state into all future reboots. A deliberate
  /// re-baseline must go through refresh_image().
  void capture_image(const Component& comp);

  /// Explicitly refreshes (re-captures) the pristine image of `comp`, e.g.
  /// after a trusted hot-update of the component binary. This is the only way
  /// to overwrite a registered pristine image.
  void refresh_image(const Component& comp);

  bool has_image(CompId comp) const { return images_.count(comp) != 0; }

  /// Performs the micro-reboot. Installed into the kernel by the ctor.
  void micro_reboot(Component& comp);

  int reboots() const { return reboots_; }
  int captures() const { return captures_; }
  std::size_t bytes_copied() const { return bytes_copied_; }

  void reset_state() override;

 private:
  /// Pristine image + live image per component; reboot copies pristine→live.
  struct Image {
    std::vector<unsigned char> pristine;
    std::vector<unsigned char> live;
  };
  void do_capture(const Component& comp);

  std::unordered_map<CompId, Image> images_;
  /// Atomic: at cores>1 recovery domains reboot disjoint components on
  /// different cores at once.
  std::atomic<int> reboots_{0};
  int captures_ = 0;
  std::atomic<std::size_t> bytes_copied_{0};
};

}  // namespace sg::kernel
