#include "p4lru/core/state_codec.hpp"

#include <gtest/gtest.h>

#include "p4lru/core/lru_state.hpp"

namespace p4lru::core::codec {
namespace {

TEST(StateCodec, Table1EncodingMatchesPaper) {
    EXPECT_EQ(encode_lru3(Permutation({1, 2, 3})), 4);
    EXPECT_EQ(encode_lru3(Permutation({2, 1, 3})), 5);
    EXPECT_EQ(encode_lru3(Permutation({3, 1, 2})), 2);
    EXPECT_EQ(encode_lru3(Permutation({1, 3, 2})), 1);
    EXPECT_EQ(encode_lru3(Permutation({2, 3, 1})), 0);
    EXPECT_EQ(encode_lru3(Permutation({3, 2, 1})), 3);
}

TEST(StateCodec, DecodeIsInverseOfEncode) {
    for (std::uint8_t code = 0; code < 6; ++code) {
        EXPECT_EQ(encode_lru3(decode_lru3(code)), code);
    }
}

TEST(StateCodec, DecodeRejectsBadCode) {
    EXPECT_THROW(decode_lru3(6), std::out_of_range);
}

TEST(StateCodec, EncodeRejectsWrongSize) {
    EXPECT_THROW((void)encode_lru3(Permutation({2, 1})),
                 std::invalid_argument);
}

TEST(StateCodec, EvenPermutationsGetEvenCodes) {
    for (std::uint8_t code = 0; code < 6; ++code) {
        EXPECT_EQ(decode_lru3(code).is_even(), code % 2 == 0) << int{code};
    }
}

// Figure 4 of the paper: operation-2 transitions.
TEST(StateCodec, Operation2MatchesFigure4) {
    EXPECT_EQ(lru3_op2(4), 5);  // ABC -> BAC
    EXPECT_EQ(lru3_op2(5), 4);
    EXPECT_EQ(lru3_op2(1), 2);  // ACB -> CAB
    EXPECT_EQ(lru3_op2(2), 1);
    EXPECT_EQ(lru3_op2(0), 3);  // BCA -> CBA
    EXPECT_EQ(lru3_op2(3), 0);
}

// Figure 5 of the paper: operation-3 transitions (two 3-cycles).
TEST(StateCodec, Operation3MatchesFigure5) {
    EXPECT_EQ(lru3_op3(4), 2);  // 4 -> 2 -> 0 -> 4
    EXPECT_EQ(lru3_op3(2), 0);
    EXPECT_EQ(lru3_op3(0), 4);
    EXPECT_EQ(lru3_op3(5), 3);  // 5 -> 3 -> 1 -> 5
    EXPECT_EQ(lru3_op3(3), 1);
    EXPECT_EQ(lru3_op3(1), 5);
}

TEST(StateCodec, Operation1IsIdentity) {
    for (std::uint8_t code = 0; code < 6; ++code) {
        EXPECT_EQ(lru3_op1(code), code);
    }
}

TEST(StateCodec, ExhaustiveVerifierPasses) {
    EXPECT_TRUE(verify_lru3_codec());
    EXPECT_TRUE(verify_lru2_codec());
}

TEST(StateCodec, S1AndS3TablesMatchDecodedPermutations) {
    for (std::uint8_t code = 0; code < 6; ++code) {
        const Permutation p = decode_lru3(code);
        EXPECT_EQ(kLru3S1[code], p(1));
        EXPECT_EQ(kLru3S3[code], p(3));
    }
}

TEST(StateCodec, Lru2TransitionsAndSlots) {
    EXPECT_EQ(lru2_op1(0), 0);
    EXPECT_EQ(lru2_op1(1), 1);
    EXPECT_EQ(lru2_op2(0), 1);
    EXPECT_EQ(lru2_op2(1), 0);
    EXPECT_EQ(lru2_s1(0), 1u);
    EXPECT_EQ(lru2_s2(0), 2u);
    EXPECT_EQ(lru2_s1(1), 2u);
    EXPECT_EQ(lru2_s2(1), 1u);
}

// Closure: every op keeps codes inside [0, 5], from every state — the DFA
// never escapes its state space.
TEST(StateCodec, TransitionsAreClosed) {
    for (std::uint8_t code = 0; code < 6; ++code) {
        EXPECT_LT(lru3_op1(code), 6);
        EXPECT_LT(lru3_op2(code), 6);
        EXPECT_LT(lru3_op3(code), 6);
    }
}

// op3 generates the 3-cycle subgroup reachability: applying it three times
// returns to the start (it is a 3-cycle on each parity class).
TEST(StateCodec, Operation3HasOrderThree) {
    for (std::uint8_t code = 0; code < 6; ++code) {
        EXPECT_EQ(lru3_op3(lru3_op3(lru3_op3(code))), code);
    }
}

// op2 is an involution.
TEST(StateCodec, Operation2IsInvolution) {
    for (std::uint8_t code = 0; code < 6; ++code) {
        EXPECT_EQ(lru3_op2(lru3_op2(code)), code);
    }
}

}  // namespace
}  // namespace p4lru::core::codec
