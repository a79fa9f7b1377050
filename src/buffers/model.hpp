// Buffer models: the paper's abstract-data-type view of packet buffers (§3).
//
// A Buffy program manipulates buffers only through the abstract operations
// backlog-p/-b, move-p/-b, and filters. This header defines the symbolic
// buffer-state interface those operations compile to; concrete
// implementations provide different precision levels:
//
//   * ListBuffer (list_model.*): a bounded, compact array of packets, each
//     with named integer fields — FPerf-level precision (contents + order).
//   * CounterBuffer (counter_model.*): packet/byte counters, optionally
//     per traffic class — CCAC-level precision (sizes only).
//
// All operations are *guarded*: they take a path-condition term and have no
// effect when it is false, which is how the symbolic evaluator encodes
// branching without control flow.
//
// Packets move between buffers as PacketBatch values, making src/dst model
// combinations uniform: a move pops a batch from the source and the
// destination accepts it (with tail-drop on overflow).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/term.hpp"

namespace buffy::buffers {

/// A buffer filter `B |> field == value` (paper Figure 3).
struct Filter {
  std::string field;
  ir::TermRef value;
};

/// Packet schema: the named integer fields each packet carries in the list
/// model. The field name "bytes" is special: backlog-b/move-b use it as the
/// packet length; if absent, every packet counts one byte.
struct BufferSchema {
  std::vector<std::string> fields;

  [[nodiscard]] bool hasField(const std::string& name) const;
  [[nodiscard]] bool hasBytes() const { return hasField(kBytesField); }

  static constexpr const char* kBytesField = "bytes";
};

/// Static configuration of one buffer instance.
struct BufferConfig {
  /// Fully-qualified instance name; used as the prefix of every symbolic
  /// variable this buffer creates (e.g. "fq.ibs0").
  std::string name;
  /// Maximum number of packets the buffer can hold; arrivals/moves beyond
  /// this are dropped (tail drop) and accounted in droppedP().
  int capacity = 8;
  BufferSchema schema;
  /// Counter model only: if non-empty, keep per-class packet counts keyed
  /// by this field over the domain [0, classDomain). Enables filtered
  /// backlog queries at counter precision.
  std::string classField;
  int classDomain = 0;
  /// Counter model only: bytes accounted per packet when no per-packet
  /// length is available.
  int bytesPerPacket = 1;
};

enum class ModelKind { List, Counter };

/// One slot of a batch of packets in flight between buffers: the fields
/// of the packet it may hold, by name. A producer that does not track a
/// field leaves it out (a field-less list tracks none).
struct PacketSlot {
  std::map<std::string, ir::TermRef> fields;
};

/// A compact batch of packets, produced by pops/arrivals and consumed by
/// accepts. Invariant: slot k holds a packet iff k < count. The code that
/// builds a batch sets `count` to the size it already has as a term (a
/// pop's clamped m, an arrival's n), and every state the encoding admits
/// keeps it within [0, slots.size()]; slots at or past count are
/// don't-care.
struct PacketBatch {
  std::vector<PacketSlot> slots;
  /// Number of packets in the batch.
  ir::TermRef count = nullptr;
  /// Optional aggregate per-class counts (field -> count per class value),
  /// produced by classified counter buffers so class information survives
  /// counter->counter flushes.
  std::map<std::string, std::vector<ir::TermRef>> classCounts;
};

/// Symbolic state of one packet buffer at the current evaluation point.
class SymBuffer {
 public:
  explicit SymBuffer(BufferConfig config)
      : config_(std::make_shared<const BufferConfig>(std::move(config))) {}
  virtual ~SymBuffer() = default;
  SymBuffer& operator=(const SymBuffer&) = delete;

  [[nodiscard]] virtual ModelKind kind() const = 0;
  [[nodiscard]] const BufferConfig& config() const { return *config_; }

  /// Number of packets / bytes currently enqueued.
  [[nodiscard]] virtual ir::TermRef backlogP() const = 0;
  [[nodiscard]] virtual ir::TermRef backlogB() const = 0;
  /// Filtered variants (`backlog-p(B |> f == n)`).
  [[nodiscard]] virtual ir::TermRef backlogP(const Filter& filter) const = 0;
  [[nodiscard]] virtual ir::TermRef backlogB(const Filter& filter) const = 0;

  /// Cumulative packets dropped due to capacity overflow.
  [[nodiscard]] virtual ir::TermRef droppedP() const = 0;

  /// Pops up to `n` packets (`popP`) or up to `bytes` bytes' worth of whole
  /// packets (`popB`) from the front, when `guard` holds. Returns the
  /// popped batch (empty when the guard is false).
  virtual PacketBatch popP(ir::TermRef n, ir::TermRef guard) = 0;
  virtual PacketBatch popB(ir::TermRef bytes, ir::TermRef guard) = 0;
  /// Pops the entire content (used by composition flush).
  virtual PacketBatch popAll() = 0;

  /// Appends a compact batch at the tail, dropping what exceeds capacity.
  virtual void accept(const PacketBatch& batch, ir::TermRef guard) = 0;

  /// A copy of the symbolic state. eval::Store calls it when a branch
  /// first writes a state that a store snapshot still shares; it copies
  /// the state terms as they are and interns nothing.
  [[nodiscard]] virtual std::unique_ptr<SymBuffer> clone() const = 0;
  /// Makes this state ite(cond, *this, other). `other` must come from a
  /// clone() of the same buffer.
  virtual void mergeElse(ir::TermRef cond, const SymBuffer& other) = 0;

  /// Named state terms (for trace extraction), e.g. {"len", <term>}.
  [[nodiscard]] virtual std::vector<std::pair<std::string, ir::TermRef>>
  stateTerms() const = 0;

  /// Replaces the symbolic state with the given terms, in the exact order
  /// and arity stateTerms() reports. Used by the transition-system builder
  /// to start a step from a symbolic pre-state. The term sorts must match
  /// (Int for all buffer state).
  virtual void setStateTerms(const std::vector<ir::TermRef>& terms) = 0;

  /// Replaces the state with fresh symbolic variables constrained to be a
  /// valid (reachable-shaped) buffer state: any backlog within capacity,
  /// arbitrary contents, zero drop accounting. Emits the validity
  /// constraints into `constraints`. Enables analyses quantified over the
  /// initial queue state (FPerf-style).
  virtual void havocState(std::vector<ir::TermRef>& constraints) = 0;

 protected:
  /// For clone(): a copy shares the (immutable) configuration.
  SymBuffer(const SymBuffer&) = default;

 private:
  std::shared_ptr<const BufferConfig> config_;
};

/// Creates an empty symbolic buffer of the requested model kind.
std::unique_ptr<SymBuffer> makeBuffer(ModelKind kind, BufferConfig config,
                                      ir::TermArena& arena);

/// Moves up to `n` packets from `src` to `dst` when `guard` holds
/// (the semantics of move-p; move-b analogously via popB).
void moveP(SymBuffer& src, SymBuffer& dst, ir::TermRef n, ir::TermRef guard,
           ir::TermArena& arena);
void moveB(SymBuffer& src, SymBuffer& dst, ir::TermRef bytes,
           ir::TermRef guard, ir::TermArena& arena);

/// Flushes the whole content of `src` into `dst` (composition semantics:
/// end-of-step transfer along a connection).
void flush(SymBuffer& src, SymBuffer& dst, ir::TermArena& arena);

}  // namespace buffy::buffers
