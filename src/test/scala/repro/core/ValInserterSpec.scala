package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ValInserterSpec extends AnyFunSuite {

  private val none = Array.empty[Int]

  test("first insert with no neighbors starts the order") {
    val ins = new ValInserter(4)
    ins.insert(0, none, none)
    assert(ins.placed(0))
    assert(ins.size == 1)
    assert(ins.result().toSeq == Seq(0))
  }

  test("neighborless inserts append at the tail") {
    val ins = new ValInserter(3)
    ins.insert(0, none, none)
    ins.insert(1, none, none)
    ins.insert(2, none, none)
    assert(ins.result().toSeq == Seq(0, 1, 2))
  }

  test("all out-neighbors placed: node goes to the head") {
    val ins = new ValInserter(3)
    ins.insert(0, none, none)
    ins.insert(1, none, none)
    // 2 -> 0 and 2 -> 1: head makes both positive
    val pe = ins.insert(2, none, Array(0, 1))
    assert(pe == 2)
    assert(ins.result().toSeq == Seq(2, 0, 1))
  }

  test("all in-neighbors placed: node goes to the tail") {
    val ins = new ValInserter(3)
    ins.insert(0, none, none)
    ins.insert(1, none, none)
    val pe = ins.insert(2, Array(0, 1), none)
    assert(pe == 2)
    assert(ins.result().toSeq == Seq(0, 1, 2))
  }

  test("mixed neighbors: optimal middle position is found") {
    // order [a=0, b=1]; insert v=2 with in-edge a->v and out-edge v->b:
    // between a and b both edges are positive
    val ins = new ValInserter(3)
    ins.insert(0, none, none)
    ins.insert(1, none, none)
    val pe = ins.insert(2, Array(0), Array(1))
    assert(pe == 2)
    assert(ins.result().toSeq == Seq(0, 2, 1))
  }

  test("Fig 4 walkthrough: neighbor sequence [p,q,u], head wins the tie") {
    // O^c = [p, h, q, u]; edges (v,p),(q,v),(v,u) — pe: head 2, after p 1,
    // after q 2, after u 1; the earliest max (head) is kept
    val ins = new ValInserter(5) // p=0,h=1,q=2,u=3,v=4
    Seq(0, 1, 2, 3).foreach(ins.insert(_, none, none))
    val pe = ins.insert(4, Array(2), Array(0, 3))
    assert(pe == 2)
    assert(ins.result().toSeq == Seq(4, 0, 1, 2, 3))
  }

  test("insert returns the achieved positive-edge count") {
    val ins = new ValInserter(4)
    ins.insert(0, none, none)
    ins.insert(1, none, none)
    ins.insert(2, none, none)
    // in from 0 and 2, out to 1: best is after 2 (tail): in-edges positive
    val pe = ins.insert(3, Array(0, 2), Array(1))
    assert(pe == 2)
  }

  test("weighted neighbors (super-vertices) use edge weights in pe") {
    val ins = new ValInserter(3)
    ins.insert(0, none, none)
    ins.insert(1, none, none)
    // a super-edge of weight 5 is five parallel entries: heavy out-edge to 0,
    // light in-edge from 1 — head yields 5 positive, tail yields 1, head wins
    val pe = ins.insert(2, Array(1), Array(0, 0, 0, 0, 0))
    assert(pe == 5)
    assert(ins.result().head == 2)
  }

  test("duplicate neighbor entries are aggregated") {
    val ins = new ValInserter(3)
    ins.insert(0, none, none)
    ins.insert(1, none, none)
    // two parallel in-edges from 0: tail-ward position after 0
    val pe = ins.insert(2, Array(0, 0), none)
    assert(pe == 2)
  }

  test("insert finds the brute-force best position over parallel and two-sided entries") {
    val rnd = new scala.util.Random(78)
    (0 until 40).foreach { _ =>
      val n   = 30
      val ins = new ValInserter(n)
      (0 until n).foreach { v =>
        val before = ins.result()
        // up to three parallel entries per neighbor, on either or both sides
        def entries: Array[Int] = rnd.shuffle(before.toSeq.flatMap { u =>
          Seq.fill(if (rnd.nextDouble() < 0.3) 1 + rnd.nextInt(3) else 0)(u)
        }).toArray
        val inN = entries; val outN = entries
        def positive(order: Array[Int], at: Int): Int = {
          val pos = order.zipWithIndex.toMap
          inN.count(pos(_) < at) + outN.count(pos(_) >= at)
        }
        val best = (0 to before.length).map(positive(before, _)).max
        assert(ins.insert(v, inN, outN) == best)
        val after = ins.result()
        assert(positive(after.filter(_ != v), after.indexOf(v)) == best)
      }
    }
  }

  test("double insert of the same node is rejected") {
    val ins = new ValInserter(2)
    ins.insert(0, none, none)
    intercept[IllegalArgumentException] { ins.insert(0, none, none) }
  }

  test("unplaced neighbor references are rejected") {
    val ins = new ValInserter(3)
    ins.insert(0, none, none)
    intercept[IllegalArgumentException] { ins.insert(1, Array(2), none) }
  }

  test("seed places nodes in the given order") {
    val ins = new ValInserter(5)
    Seq(3, 1, 4).foreach(ins.seed)
    assert(ins.result().toSeq == Seq(3, 1, 4))
    assert(ins.size == 3)
  }

  test("seed then insert keeps relative seeded order") {
    val ins = new ValInserter(4)
    Seq(0, 1, 2).foreach(ins.seed)
    ins.insert(3, Array(0), Array(1)) // between 0 and 1
    assert(ins.result().toSeq == Seq(0, 3, 1, 2))
  }

  test("deep nesting triggers renormalization without breaking the order") {
    // nodes 0 (val 1024, after a neighborless node n at val 0) and 1 (tail);
    // each node i>1 has in-edge from 0 and out-edge to node i-1 — forcing
    // insertion between 0 and i-1, which halves the val interval every time
    // until renormalization kicks in (bisecting towards 0.0 would reach the
    // subnormals first and never exhaust precision)
    val n   = 120
    val ins = new ValInserter(n + 1)
    ins.insert(n, none, none)
    ins.insert(0, none, none)
    ins.insert(1, Array(0), none)
    (2 until n).foreach { i =>
      val pe = ins.insert(i, Array(0), Array(i - 1))
      assert(pe == 2, s"node $i should place both its edges positively")
    }
    assert(ins.valOf(1) > 2048.0, "renormalization renumbers vals to rank·1024")
    val res = ins.result()
    assert(res.sorted.toSeq == (0 to n), "result must be a permutation")
    // every node i>=2 must sit after 0 and before i-1
    val pos = new Array[Int](n + 1)
    res.zipWithIndex.foreach { case (v, p) => pos(v) = p }
    (2 until n).foreach { i =>
      assert(pos(0) < pos(i), s"node $i must follow node 0")
      assert(pos(i) < pos(i - 1), s"node $i must precede node ${i - 1}")
    }
  }

  test("Lemma 2: every insertion makes at least half its placed edges positive") {
    val rnd = new scala.util.Random(77)
    (0 until 20).foreach { _ =>
      val n   = 30
      val ins = new ValInserter(n)
      val placed = scala.collection.mutable.ArrayBuffer.empty[Int]
      (0 until n).foreach { v =>
        // random edges between v and already-placed vertices
        val inN  = placed.filter(_ => rnd.nextDouble() < 0.3).toArray
        val outN = placed.filter(_ => rnd.nextDouble() < 0.3).toArray
        val pe   = ins.insert(v, inN, outN)
        val ec   = inN.size + outN.size
        assert(pe >= ec / 2.0, s"pe=$pe < |E_v^c|/2=${ec / 2.0}")
        placed += v
      }
    }
  }

  test("matches the boxed reference model after every step") {
    // random ids, so (val, id) ties are broken by id, driven through five
    // kinds of insert: a burst into one gap (renormalization), head and tail
    // inserts (val ties), short two-sided lists with parallel entries, and
    // lists longer than the short-sort cutoff
    val cut = ValInserter.ShortSort
    var renormalized = 0
    (1 to 5).foreach { seed =>
      val rnd = new scala.util.Random(seed)
      val n   = 600
      val ins = new ValInserter(n); val ref = new BoxedValInserter(n)
      val placed = scala.collection.mutable.ArrayBuffer.empty[Int]
      var gapLo = -1; var gapHi = -1; var burst = 0
      def pick(k: Int): Array[Int] = Array.fill(k)(placed(rnd.nextInt(placed.size)))
      def ranks(order: Array[Int]): Boolean = order.indices.forall(r => ins.valOf(order(r)) == r * 1024.0)
      rnd.shuffle((0 until n).toVector).foreach { v =>
        if (burst == 0 && placed.size >= 2 && rnd.nextInt(30) == 0) {
          // a burst: each node goes between gapLo and the previous one
          val order = ref.result(); val a = rnd.nextInt(order.length - 1)
          gapLo = order(a); gapHi = order(a + 1 + rnd.nextInt(order.length - a - 1)); burst = 70
        }
        val (inN, outN) =
          if (placed.isEmpty) (none, none)
          else if (burst > 0) (Array(gapLo), Array(gapHi))
          else rnd.nextInt(5) match {
            case 1 => (none, pick(1 + rnd.nextInt(3)))
            case 2 => (pick(1 + rnd.nextInt(3)), none)
            case 3 => (pick(cut + rnd.nextInt(2 * cut)), pick(cut + rnd.nextInt(2 * cut)))
            case 4 => (none, none)
            case _ => (pick(rnd.nextInt(4)), pick(rnd.nextInt(4)))
          }
        val wasRanks = ranks(ins.result())
        assert(ins.insert(v, inN, outN) == ref.insert(v, inN, outN), s"pe of $v (seed $seed)")
        if (burst > 0) { burst -= 1; gapHi = v }
        placed += v
        val order = ins.result()
        assert(order.sameElements(ref.result()), s"order after $v (seed $seed)")
        order.foreach { u =>
          assert(java.lang.Double.doubleToRawLongBits(ins.valOf(u)) ==
            java.lang.Double.doubleToRawLongBits(ref.valOf(u)), s"val of $u after $v (seed $seed)")
        }
        if (!wasRanks && ranks(order.filter(_ != v))) renormalized += 1
      }
    }
    assert(renormalized > 0, "the gap bursts must force renormalization")
  }

  test("valOf rejects unplaced nodes") {
    val ins = new ValInserter(2)
    intercept[IllegalArgumentException] { ins.valOf(0) }
  }
}
