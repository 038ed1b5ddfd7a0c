// Ledger tests: transaction signing/encoding, block Merkle roots, chain
// validation, immutability (the paper's Figure 2 property), fork choice,
// transaction proofs, stored per-transaction digests, repeated-transaction
// rejection, fixed golden digests, chunked ChainViews, and the mempool.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ledger/chain.h"

namespace provledger {
namespace ledger {
namespace {

crypto::PrivateKey TestKey(const std::string& name) {
  return crypto::PrivateKey::FromSeed(name);
}

Transaction SignedTx(const std::string& payload, const std::string& who,
                     uint64_t nonce = 0) {
  return Transaction::MakeSigned("prov/record", "test-channel",
                                 ToBytes(payload), TestKey(who),
                                 /*timestamp=*/1000, nonce);
}

/// Unsigned transaction with a unique payload: cheap enough to fill
/// hundreds of blocks.
Transaction SystemTx(uint64_t n) {
  return Transaction::MakeSystem("t", "test-channel",
                                 ToBytes("tx-" + std::to_string(n)),
                                 /*timestamp=*/1000, n);
}

/// Every main-chain transaction's recomputed id matches the id stored with
/// its block, resolves to its own height and index, and proves.
void ExpectStoredDigestsResolve(const Blockchain& chain) {
  for (uint64_t h = 0; h <= chain.height(); ++h) {
    const Block* block = chain.PeekBlock(h);
    const std::vector<crypto::Digest>* ids = chain.PeekTxIds(h);
    ASSERT_NE(block, nullptr);
    ASSERT_NE(ids, nullptr);
    ASSERT_EQ(ids->size(), block->transactions.size());
    for (uint32_t i = 0; i < block->transactions.size(); ++i) {
      const Transaction& tx = block->transactions[i];
      const crypto::Digest id = tx.Id();
      EXPECT_EQ((*ids)[i], id) << "height " << h << " tx " << i;
      auto loc = chain.FindTransaction(id);
      ASSERT_TRUE(loc.ok()) << "height " << h << " tx " << i;
      EXPECT_EQ(loc->height, h);
      EXPECT_EQ(loc->index, i);
      auto proof = chain.ProveTransaction(id);
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(chain.VerifyTxProof(tx.Encode(), proof.value()));
    }
  }
}

/// A view agrees with the live chain at every height: same installed
/// hashes, and the very block objects PeekBlock hands out.
void ExpectViewMatchesChain(const ChainView& view, const Blockchain& chain) {
  ASSERT_EQ(view.height(), chain.height());
  for (uint64_t h = 0; h <= view.height(); ++h) {
    EXPECT_EQ(view.hash(h), chain.BlockHashAt(h).value()) << "height " << h;
    EXPECT_EQ(&view.block(h), chain.PeekBlock(h)) << "height " << h;
  }
}

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction tx = SignedTx("hello", "alice");
  auto decoded = Transaction::Decode(tx.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Id(), tx.Id());
  EXPECT_EQ(decoded->type, "prov/record");
  EXPECT_EQ(decoded->channel, "test-channel");
  EXPECT_TRUE(decoded->VerifySignature().ok());
}

TEST(TransactionTest, SignatureCoversPayload) {
  Transaction tx = SignedTx("hello", "alice");
  tx.payload = ToBytes("tampered");
  EXPECT_TRUE(tx.VerifySignature().IsUnauthenticated());
}

TEST(TransactionTest, SignatureCoversMetadata) {
  Transaction tx = SignedTx("hello", "alice");
  tx.nonce ^= 1;
  EXPECT_FALSE(tx.VerifySignature().ok());
}

TEST(TransactionTest, SystemTransactionNeedsNoSignature) {
  Transaction tx = Transaction::MakeSystem("genesis", "", ToBytes("x"), 0, 0);
  EXPECT_FALSE(tx.IsSigned());
  EXPECT_TRUE(tx.VerifySignature().ok());
}

TEST(TransactionTest, IdIsContentAddressed) {
  Transaction a = SignedTx("same", "alice", 1);
  Transaction b = SignedTx("same", "alice", 1);
  Transaction c = SignedTx("same", "alice", 2);
  EXPECT_EQ(a.Id(), b.Id());
  EXPECT_NE(a.Id(), c.Id());
}

TEST(BlockTest, MerkleRootBindsTransactions) {
  std::vector<Transaction> txs = {SignedTx("a", "alice"),
                                  SignedTx("b", "bob")};
  Block block = Block::Make(1, crypto::ZeroDigest(), txs, 1000, "node-0");
  EXPECT_EQ(block.header.merkle_root, Block::ComputeMerkleRoot(txs));
  // Mutating a transaction breaks the root.
  block.transactions[0].payload = ToBytes("evil");
  EXPECT_NE(Block::ComputeMerkleRoot(block.transactions),
            block.header.merkle_root);
}

TEST(BlockTest, EncodeDecodeRoundTrip) {
  std::vector<Transaction> txs = {SignedTx("a", "alice"),
                                  SignedTx("b", "bob")};
  Block block = Block::Make(3, crypto::ZeroDigest(), txs, 1234, "node-1");
  auto decoded = Block::Decode(block.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.Hash(), block.header.Hash());
  EXPECT_EQ(decoded->transactions.size(), 2u);
}

TEST(BlockTest, TransactionInclusionProof) {
  std::vector<Transaction> txs;
  for (int i = 0; i < 9; ++i) txs.push_back(SignedTx("tx", "alice", i));
  Block block = Block::Make(1, crypto::ZeroDigest(), txs, 1000, "n");
  for (size_t i = 0; i < txs.size(); ++i) {
    auto proof = block.ProveTransaction(i);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(crypto::MerkleTree::VerifyProof(
        block.header.merkle_root, block.transactions[i].Encode(),
        proof.value()));
  }
  EXPECT_FALSE(block.ProveTransaction(99).ok());
}

TEST(BlockchainTest, GenesisExists) {
  Blockchain chain;
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.genesis().header.height, 0u);
  EXPECT_TRUE(chain.VerifyIntegrity().ok());
}

TEST(BlockchainTest, DistinctChainIdsDistinctGenesis) {
  Blockchain a(ChainOptions{.chain_id = "chain-a"});
  Blockchain b(ChainOptions{.chain_id = "chain-b"});
  EXPECT_NE(a.head_hash(), b.head_hash());
}

TEST(BlockchainTest, AppendAndQuery) {
  Blockchain chain;
  Transaction tx = SignedTx("record-1", "alice");
  auto hash = chain.Append({tx}, /*timestamp=*/1000, "node-0");
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(chain.height(), 1u);

  auto loc = chain.FindTransaction(tx.Id());
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->height, 1u);
  auto fetched = chain.GetTransaction(tx.Id());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->payload, tx.payload);
}

TEST(BlockchainTest, RejectsBadSignature) {
  Blockchain chain;
  Transaction tx = SignedTx("record", "alice");
  tx.payload = ToBytes("tampered-after-signing");
  EXPECT_FALSE(chain.Append({tx}, 1000, "node-0").ok());
  EXPECT_EQ(chain.height(), 0u);
}

TEST(BlockchainTest, UnsignedPolicyEnforced) {
  ChainOptions opts;
  opts.allow_unsigned = false;
  Blockchain chain(opts);
  Transaction tx = Transaction::MakeSystem("t", "", ToBytes("x"), 1000, 1);
  EXPECT_TRUE(chain.Append({tx}, 1000, "n").status().IsPermissionDenied());
}

TEST(BlockchainTest, MaxBlockTxsEnforced) {
  ChainOptions opts;
  opts.max_block_txs = 2;
  Blockchain chain(opts);
  std::vector<Transaction> txs = {SignedTx("a", "a", 1), SignedTx("b", "a", 2),
                                  SignedTx("c", "a", 3)};
  EXPECT_FALSE(chain.Append(txs, 1000, "n").ok());
  txs.pop_back();
  EXPECT_TRUE(chain.Append(txs, 1000, "n").ok());
}

TEST(BlockchainTest, AppendComputesMerkleRootOncePerBlock) {
  // Self-produce path: the root is derived once from the transactions,
  // and acceptance trusts it — re-deriving it bought nothing and doubled
  // the per-block hashing on every local Append.
  obs::Counter* roots = obs::Registry::Default()->GetCounter(
      "merkle_root_computes_total", "");
  Blockchain chain;
  uint64_t before = roots->value();
  ASSERT_TRUE(chain.Append({SignedTx("a", "a", 1)}, 1000, "n").ok());
  EXPECT_EQ(roots->value(), before + 1);

  // Externally submitted blocks still get the full recompute: Make pays
  // one, validation pays the second.
  Block external = Block::Make(2, chain.head_hash(), {SignedTx("b", "a", 2)},
                               1001, "rival");
  before = roots->value();
  ASSERT_TRUE(chain.SubmitBlock(external).ok());
  EXPECT_EQ(roots->value(), before + 1);

  // ...and a tampered external block is still caught by that recompute.
  Block bad = Block::Make(3, chain.head_hash(), {SignedTx("c", "a", 3)},
                          1002, "rival");
  bad.transactions[0].payload = ToBytes("swapped");
  EXPECT_TRUE(chain.SubmitBlock(bad).IsCorruption());

  // AppendPrepared roots the cached leaves once, or not at all when the
  // caller brings the root.
  auto prepare = [](Transaction tx) {
    const Bytes encoding = tx.Encode();
    PreparedTx prepared;
    prepared.id = tx.Id();
    prepared.leaf = crypto::MerkleTree::LeafHash(encoding);
    prepared.tx = std::move(tx);
    return prepared;
  };
  std::vector<PreparedTx> txs;
  txs.push_back(prepare(SignedTx("d", "a", 4)));
  before = roots->value();
  ASSERT_TRUE(chain.AppendPrepared(&txs, 1003, "n").ok());
  EXPECT_EQ(roots->value(), before + 1);
  txs.push_back(prepare(SignedTx("e", "a", 5)));
  const crypto::Digest root =
      crypto::MerkleTree::BuildFromDigests({txs[0].leaf}).root();
  before = roots->value();
  ASSERT_TRUE(chain.AppendPrepared(&txs, 1004, "n", 0, &root).ok());
  EXPECT_EQ(roots->value(), before);
}

TEST(BlockchainTest, TimestampMonotonicity) {
  Blockchain chain;
  ASSERT_TRUE(chain.Append({SignedTx("a", "a")}, 2000, "n").ok());
  EXPECT_FALSE(chain.Append({SignedTx("b", "a")}, 1000, "n").ok());
  EXPECT_TRUE(chain.Append({SignedTx("b", "a")}, 2000, "n").ok());
}

TEST(BlockchainTest, ImmutabilityAnyTamperDetected) {
  // The paper's core claim (Figure 2): altering any historical transaction
  // invalidates the chain.
  Blockchain chain;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        chain.Append({SignedTx("r" + std::to_string(i), "alice", i)},
                     1000 + i, "node-0")
            .ok());
  }
  ASSERT_TRUE(chain.VerifyIntegrity().ok());
  for (uint64_t h = 1; h <= 10; ++h) {
    Blockchain victim;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          victim.Append({SignedTx("r" + std::to_string(i), "alice", i)},
                        1000 + i, "node-0")
              .ok());
    }
    ASSERT_TRUE(victim.TamperForTesting(h, 0, 0xFF).ok());
    EXPECT_TRUE(victim.VerifyIntegrity().IsCorruption()) << "height " << h;
  }
}

TEST(BlockchainTest, ForkChoiceAdoptsLongerBranch) {
  Blockchain chain;
  ASSERT_TRUE(chain.Append({SignedTx("main-1", "a", 1)}, 1000, "n").ok());
  crypto::Digest fork_point = chain.head_hash();
  ASSERT_TRUE(chain.Append({SignedTx("main-2", "a", 2)}, 1001, "n").ok());
  EXPECT_EQ(chain.height(), 2u);

  // Build a competing branch from height 1 with two blocks.
  Block side1 = Block::Make(2, fork_point, {SignedTx("side-2", "b", 1)},
                            1002, "rival");
  ASSERT_TRUE(chain.SubmitBlock(side1).ok());
  EXPECT_EQ(chain.height(), 2u);  // tie: main chain keeps the head

  Block side2 = Block::Make(3, side1.header.Hash(),
                            {SignedTx("side-3", "b", 2)}, 1003, "rival");
  ASSERT_TRUE(chain.SubmitBlock(side2).ok());
  EXPECT_EQ(chain.height(), 3u);  // reorg to the longer branch

  // main-2's transaction fell off the main chain; side transactions are on.
  EXPECT_TRUE(
      chain.FindTransaction(SignedTx("main-2", "a", 2).Id()).status()
          .IsNotFound());
  EXPECT_TRUE(chain.FindTransaction(SignedTx("side-3", "b", 2).Id()).ok());
  EXPECT_TRUE(chain.VerifyIntegrity().ok());
  EXPECT_EQ(chain.total_blocks(), 5u);       // genesis + 2 main + 2 side
  EXPECT_EQ(chain.main_chain_length(), 4u);  // genesis..height 3
}

TEST(BlockchainTest, SubmitRejectsUnknownParentAndDuplicates) {
  Blockchain chain;
  Block orphan = Block::Make(5, crypto::Sha256::Hash("nowhere"),
                             {SignedTx("x", "a")}, 1000, "n");
  EXPECT_TRUE(chain.SubmitBlock(orphan).IsNotFound());

  ASSERT_TRUE(chain.Append({SignedTx("a", "a")}, 1000, "n").ok());
  auto dup = chain.GetBlock(1);
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(chain.SubmitBlock(dup.value()).IsAlreadyExists());
}

TEST(BlockchainTest, TxProofVerifies) {
  Blockchain chain;
  std::vector<Transaction> txs;
  for (int i = 0; i < 7; ++i) txs.push_back(SignedTx("t", "alice", i));
  ASSERT_TRUE(chain.Append(txs, 1000, "n").ok());

  auto proof = chain.ProveTransaction(txs[3].Id());
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(chain.VerifyTxProof(txs[3].Encode(), proof.value()));
  EXPECT_TRUE(Blockchain::VerifyTxProofAgainstHeader(txs[3].Encode(),
                                                     proof.value()));
  // Wrong transaction fails.
  EXPECT_FALSE(chain.VerifyTxProof(txs[4].Encode(), proof.value()));
  // Forged header fails.
  auto forged = proof.value();
  forged.header.timestamp += 1;
  EXPECT_FALSE(Blockchain::VerifyTxProofAgainstHeader(txs[3].Encode(), forged));
}

TEST(BlockchainTest, ChannelScan) {
  Blockchain chain;
  Transaction t1 = Transaction::MakeSigned("r", "ch-a", ToBytes("1"),
                                           TestKey("a"), 1000, 1);
  Transaction t2 = Transaction::MakeSigned("r", "ch-b", ToBytes("2"),
                                           TestKey("a"), 1000, 2);
  Transaction t3 = Transaction::MakeSigned("r", "ch-a", ToBytes("3"),
                                           TestKey("a"), 1000, 3);
  ASSERT_TRUE(chain.Append({t1, t2}, 1000, "n").ok());
  ASSERT_TRUE(chain.Append({t3}, 1001, "n").ok());
  auto on_a = chain.GetChannelTransactions("ch-a");
  ASSERT_EQ(on_a.size(), 2u);
  EXPECT_EQ(on_a[0].payload, ToBytes("1"));
  EXPECT_EQ(on_a[1].payload, ToBytes("3"));
}

TEST(BlockchainTest, StoredDigestsResolveOnEveryAcceptancePath) {
  Blockchain chain;
  Timestamp ts = 1000;
  uint64_t n = 0;
  ASSERT_TRUE(chain
                  .Append({SignedTx("a", "alice", n++),
                           SignedTx("b", "alice", n++),
                           SignedTx("c", "bob", n++)},
                          ++ts, "n")
                  .ok());
  std::vector<PreparedTx> prepared;
  for (int i = 0; i < 5; ++i) {
    Transaction tx = SystemTx(n++);
    prepared.push_back(
        PreparedTx{tx, tx.Id(), crypto::MerkleTree::LeafHash(tx.Encode())});
  }
  ASSERT_TRUE(chain.AppendPrepared(&prepared, ++ts, "n").ok());
  Block external = Block::Make(chain.height() + 1, chain.head_hash(),
                               {SystemTx(n++), SystemTx(n++)}, ++ts, "peer");
  ASSERT_TRUE(chain.SubmitBlock(external).ok());
  ASSERT_EQ(chain.height(), 3u);
  ExpectStoredDigestsResolve(chain);

  // A side branch from height 1 outgrows the main chain. After the reorg
  // the index holds exactly the adopted chain, from stored ids.
  const Transaction orphaned = chain.PeekBlock(2)->transactions[0];
  crypto::Digest parent = chain.BlockHashAt(1).value();
  for (uint64_t h = 2; h <= 4; ++h) {
    Block side = Block::Make(h, parent, {SystemTx(n++), SystemTx(n++)},
                             ++ts, "rival");
    ASSERT_TRUE(chain.SubmitBlock(side).ok());
    parent = side.header.Hash();
  }
  ASSERT_EQ(chain.height(), 4u);
  ASSERT_EQ(chain.head_hash(), parent);
  EXPECT_TRUE(chain.FindTransaction(orphaned.Id()).status().IsNotFound());
  ExpectStoredDigestsResolve(chain);
  EXPECT_TRUE(chain.VerifyIntegrity().ok());
}

TEST(BlockchainTest, RepeatedTailTransactionsAreRejected) {
  // An odd Merkle level pairs its last node with itself, so repeating a
  // block's tail keeps its root and its hash (CVE-2012-2459): [a,b,c] as
  // [a,b,c,c], and [a..f] as [a..f,e,f].
  for (const auto& [count, tail] :
       std::vector<std::pair<uint64_t, uint64_t>>{{3, 1}, {6, 2}}) {
    SCOPED_TRACE(count);
    Blockchain chain;
    size_t sunk = 0;
    chain.SetBlockSink([&sunk](const Block&) {
      ++sunk;
      return Status::OK();
    });
    std::vector<Transaction> txs;
    for (uint64_t i = 0; i < count; ++i) txs.push_back(SystemTx(i));
    const Block honest = Block::Make(1, chain.head_hash(), txs, 1000, "peer");
    Block mutated = honest;
    for (uint64_t i = count - tail; i < count; ++i) {
      mutated.transactions.push_back(txs[i]);
    }
    ASSERT_EQ(Block::ComputeMerkleRoot(mutated.transactions),
              honest.header.merkle_root);
    ASSERT_EQ(mutated.header.Hash(), honest.header.Hash());

    EXPECT_TRUE(chain.SubmitBlock(mutated).IsInvalidArgument());
    EXPECT_EQ(chain.height(), 0u);
    EXPECT_EQ(sunk, 0u);  // refused before the write-ahead sink
    ASSERT_TRUE(chain.SubmitBlock(honest).ok());
    EXPECT_EQ(chain.height(), 1u);
    EXPECT_EQ(chain.PeekBlock(1)->transactions.size(), count);
    EXPECT_TRUE(chain.VerifyIntegrity().ok());
  }
}

TEST(BlockchainTest, AppendPathsRejectRepeatedTransactions) {
  // A block built locally must replay through SubmitBlock from the chain
  // log, so the local paths refuse what SubmitBlock would refuse.
  Blockchain chain;
  size_t sunk = 0;
  chain.SetBlockSink([&sunk](const Block&) {
    ++sunk;
    return Status::OK();
  });
  const Transaction first = SystemTx(0);
  const Transaction repeated = SystemTx(1);
  EXPECT_TRUE(chain.Append({first, repeated, repeated}, 1000, "n")
                  .status()
                  .IsInvalidArgument());

  std::vector<PreparedTx> prepared;
  for (const Transaction& tx : {first, repeated, repeated}) {
    prepared.push_back(
        PreparedTx{tx, tx.Id(), crypto::MerkleTree::LeafHash(tx.Encode())});
  }
  EXPECT_TRUE(chain.AppendPrepared(&prepared, 1000, "n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(sunk, 0u);
  // The refused transactions come back intact, in order, for a retry.
  ASSERT_EQ(prepared.size(), 3u);
  EXPECT_EQ(prepared[0].tx.Id(), first.Id());
  EXPECT_EQ(prepared[1].tx.Id(), repeated.Id());
  EXPECT_EQ(prepared[2].tx.Id(), repeated.Id());
  prepared.pop_back();
  ASSERT_TRUE(chain.AppendPrepared(&prepared, 1000, "n").ok());
  EXPECT_TRUE(prepared.empty());
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(sunk, 1u);
}

TEST(BlockchainTest, DigestsMatchGoldens) {
  // Transaction ids, Merkle leaves and roots, and header hashes are kept
  // in chain logs and snapshots and sent between nodes, so fixed inputs
  // must give these digests whichever SHA-256 compression the CPU runs.
  const Transaction tx = Transaction::MakeSystem(
      "prov/record", "golden", ToBytes("golden-payload"), 1234567, 42);
  EXPECT_EQ(crypto::DigestHex(tx.Id()),
            "8cb6ddfcba7454660b47b894f165433d17ecfe8014d61b3b746b3343b7b4f1ea");
  EXPECT_EQ(crypto::DigestHex(crypto::MerkleTree::LeafHash(tx.Encode())),
            "a9345423bb950c8b715ec5776b47d33e3cdc5625658b24e601351821413ac34a");

  std::vector<Transaction> txs;
  for (uint64_t i = 0; i < 3; ++i) {
    txs.push_back(Transaction::MakeSystem(
        "prov/record", "golden", ToBytes("payload-" + std::to_string(i)),
        static_cast<Timestamp>(1000 + i), i));
  }
  const Block block = Block::Make(7, crypto::Sha256::Hash("parent"), txs,
                                  2000, "golden-node");
  EXPECT_EQ(crypto::DigestHex(block.header.merkle_root),
            "4f3110685792b6ee2f2b5b515666914911b3362519c2b03fb520e5308a856e7a");
  EXPECT_EQ(crypto::DigestHex(block.header.Hash()),
            "bd3e7eae7c0b0b0e95f0ad0c31f87c8cbe5e2d9adbdceaa526220a6731a1d38a");
  EXPECT_EQ(crypto::DigestHex(crypto::MerkleTree::NodeHash(
                crypto::Sha256::Hash("left"), crypto::Sha256::Hash("right"))),
            "09bda0c49344a4274d2202b56814924b5a20542fa05d321b5476b1cff86e4f1e");
}

TEST(ChainViewTest, PinnedViewSurvivesReorgsAndChunkSeals) {
  Blockchain chain;
  Timestamp ts = 1000;
  uint64_t n = 0;
  auto append = [&] {
    ASSERT_TRUE(chain.Append({SystemTx(n++)}, ++ts, "n").ok());
  };
  // Branch of `count` blocks forking off main-chain height `fork`.
  auto submit_branch = [&](uint64_t fork, uint64_t count) {
    crypto::Digest parent = chain.BlockHashAt(fork).value();
    for (uint64_t h = fork + 1; h <= fork + count; ++h) {
      Block side = Block::Make(h, parent, {SystemTx(n++)}, ++ts, "rival");
      ASSERT_TRUE(chain.SubmitBlock(side).ok());
      parent = side.header.Hash();
    }
    ASSERT_EQ(chain.head_hash(), parent);
  };
  struct Pinned {
    std::shared_ptr<const ChainView> view;
    std::vector<crypto::Digest> hashes;
    std::vector<Bytes> blocks;
  };
  auto pin = [&chain] {
    Pinned p;
    p.view = chain.AcquireChainView();
    for (uint64_t h = 0; h <= p.view->height(); ++h) {
      p.hashes.push_back(p.view->hash(h));
      p.blocks.push_back(p.view->block(h).Encode());
    }
    return p;
  };
  auto expect_unchanged = [](const Pinned& p) {
    ASSERT_EQ(p.view->height() + 1, p.hashes.size());
    for (uint64_t h = 0; h <= p.view->height(); ++h) {
      EXPECT_EQ(p.view->hash(h), p.hashes[h]) << "height " << h;
      EXPECT_EQ(p.view->block(h).Encode(), p.blocks[h]) << "height " << h;
    }
  };

  for (int i = 0; i < 5; ++i) append();
  Pinned early = pin();
  // Reorg inside the open chunk, then enough appends to seal three.
  submit_branch(/*fork=*/3, /*count=*/4);
  ASSERT_NE(chain.BlockHashAt(4).value(), early.hashes[4]);
  while (chain.height() < 3 * ChainView::kChunkBlocks + 5) append();
  expect_unchanged(early);
  ExpectViewMatchesChain(*chain.AcquireChainView(), chain);

  // Reorg forking inside a sealed chunk: the fresh view is rebuilt, the
  // pinned ones keep every height they had.
  Pinned late = pin();
  const uint64_t fork = 2 * ChainView::kChunkBlocks - 1;
  submit_branch(fork, chain.height() - fork + 1);
  ASSERT_NE(chain.BlockHashAt(fork + 1).value(), late.hashes[fork + 1]);
  expect_unchanged(early);
  expect_unchanged(late);
  ExpectViewMatchesChain(*chain.AcquireChainView(), chain);
  ExpectStoredDigestsResolve(chain);
}

TEST(MempoolTest, DedupAndFifo) {
  Mempool pool;
  Transaction a = SignedTx("a", "alice", 1);
  Transaction b = SignedTx("b", "alice", 2);
  ASSERT_TRUE(pool.Add(a).ok());
  ASSERT_TRUE(pool.Add(b).ok());
  EXPECT_TRUE(pool.Add(a).IsAlreadyExists());
  EXPECT_EQ(pool.size(), 2u);

  auto taken = pool.Take(1);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].Id(), a.Id());
  // After taking, the same tx may be re-added (e.g. after a reorg).
  EXPECT_TRUE(pool.Add(a).ok());
}

TEST(MempoolTest, RejectsBadSignatures) {
  Mempool pool;
  Transaction tx = SignedTx("a", "alice");
  tx.payload = ToBytes("tampered");
  EXPECT_FALSE(pool.Add(tx).ok());
  EXPECT_TRUE(pool.empty());
}

TEST(MempoolTest, TakeAllWhenZero) {
  Mempool pool;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(pool.Add(SignedTx("t", "a", i)).ok());
  EXPECT_EQ(pool.Take(0).size(), 5u);
  EXPECT_TRUE(pool.empty());
}

}  // namespace
}  // namespace ledger
}  // namespace provledger
