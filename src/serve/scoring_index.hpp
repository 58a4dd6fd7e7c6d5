// The serving hot path scores through the core pattern matcher
// (core/pattern_match_index.hpp): the one FeatureSpace::Encode runs through,
// so a served prediction sees exactly the vector an offline one does.
#pragma once

#include "core/pattern_match_index.hpp"

namespace dfp::serve {

using PatternMatchIndex = dfp::PatternMatchIndex;

}  // namespace dfp::serve
