// List-precision buffer model: a bounded, compact array of packets with
// named integer fields (FPerf's representation). Tracks contents and order,
// so it supports every query, at higher solver cost.
#pragma once

#include "buffers/model.hpp"

namespace buffy::buffers {

class ListBuffer final : public SymBuffer {
 public:
  /// Creates an empty buffer. All state starts concrete (len = 0).
  ListBuffer(BufferConfig config, ir::TermArena& arena);

  [[nodiscard]] ModelKind kind() const override { return ModelKind::List; }

  [[nodiscard]] ir::TermRef backlogP() const override { return len_; }
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

  /// Field term of slot `i` (meaningful when i < len). Used by tests.
  [[nodiscard]] ir::TermRef fieldAt(int i, const std::string& field) const;

 private:
  ListBuffer(const ListBuffer&) = default;  // clone()

  /// Bytes length of slot i (the "bytes" field, or constant 1).
  [[nodiscard]] ir::TermRef bytesAt(int i) const;
  /// Pops exactly `m` packets (m already clamped to [0, len]).
  PacketBatch popCount(ir::TermRef m);

  ir::TermArena& arena_;
  ir::TermRef len_;
  ir::TermRef dropped_;
  /// slots_[i][field] — contents of slot i; arbitrary (stale) above len.
  std::vector<std::map<std::string, ir::TermRef>> slots_;
};

}  // namespace buffy::buffers
