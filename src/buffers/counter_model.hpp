// Counter-precision buffer model: the buffer is abstracted to the number of
// packets it holds (CCAC's representation), optionally split per traffic
// class. Packet sizes are abstracted to a constant bytesPerPacket, so
// backlog-b == backlog-p * bytesPerPacket.
//
// Class-splitting nondeterminism (which classes a pop takes, which classes
// an overflowing accept drops) is expressed with fresh variables constrained
// through a side-constraint sink supplied at construction.
#pragma once

#include "buffers/model.hpp"

namespace buffy::buffers {

class CounterBuffer final : public SymBuffer {
 public:
  /// `sideConstraints` receives the nondeterminism constraints this model
  /// emits; it must outlive the buffer. May be null iff the buffer is not
  /// classified.
  CounterBuffer(BufferConfig config, ir::TermArena& arena,
                std::vector<ir::TermRef>* sideConstraints);

  [[nodiscard]] ModelKind kind() const override { return ModelKind::Counter; }

  [[nodiscard]] ir::TermRef backlogP() const override { return pkts_; }
  [[nodiscard]] ir::TermRef backlogB() const override;
  [[nodiscard]] ir::TermRef backlogP(const Filter& filter) const override;
  [[nodiscard]] ir::TermRef backlogB(const Filter& filter) const override;
  [[nodiscard]] ir::TermRef droppedP() const override { return dropped_; }

  PacketBatch popP(ir::TermRef n, ir::TermRef guard) override;
  PacketBatch popB(ir::TermRef bytes, ir::TermRef guard) override;
  PacketBatch popAll() override;
  void accept(const PacketBatch& batch, ir::TermRef guard) override;

  [[nodiscard]] std::unique_ptr<SymBuffer> clone() const override;
  void mergeElse(ir::TermRef cond, const SymBuffer& other) override;

  [[nodiscard]] std::vector<std::pair<std::string, ir::TermRef>> stateTerms()
      const override;
  void setStateTerms(const std::vector<ir::TermRef>& terms) override;
  void havocState(std::vector<ir::TermRef>& constraints) override;

 private:
  CounterBuffer(const CounterBuffer&) = default;  // clone()

  [[nodiscard]] bool classified() const { return config().classDomain > 0; }
  void emit(ir::TermRef constraint);
  /// Pops exactly `m` (clamped) packets, distributing class counts
  /// nondeterministically; returns the batch.
  PacketBatch popCount(ir::TermRef m);

  ir::TermArena& arena_;
  std::vector<ir::TermRef>* sideConstraints_;
  ir::TermRef pkts_;
  ir::TermRef dropped_;
  std::vector<ir::TermRef> classCounts_;  // size == classDomain when classified
};

}  // namespace buffy::buffers
